package experiment

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var (
	update = flag.Bool("update", false, "rewrite the determinism golden fixture")
	record = flag.Bool("record", false, "run TestFullScaleRecord: the whole table at full scale against the committed record")
)

// quickResults renders Table I(a), Table I(b), and Figure 4 on one fresh
// QuickScale lab — the surface the determinism guarantee covers — as
// capbench -exp table1a,table1b,fig4 prints them, less the final newline,
// which the golden predates.
func quickResults(t *testing.T, workers int, prewarm bool) string {
	t.Helper()
	l := NewLab(QuickScale())
	l.Workers = workers
	if prewarm {
		if err := l.Prewarm(context.Background()); err != nil {
			t.Fatalf("Prewarm: %v", err)
		}
	}
	var b strings.Builder
	if _, err := l.Render(&b, "table1a,table1b,fig4"); err != nil {
		t.Fatalf("Render: %v", err)
	}
	return strings.TrimSuffix(b.String(), "\n")
}

// TestDeterminismParallelMatchesSequential is the tentpole guarantee: a
// Workers=8 run (with Prewarm racing the cache fills) produces output
// byte-identical to the strictly sequential Workers=1 run, and both match
// the committed golden fixture. Regenerate the fixture with
//
//	go test ./internal/experiment -run TestDeterminism -update
func TestDeterminismParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("two full QuickScale evaluations; skipped in -short")
	}
	seq := quickResults(t, 1, false)
	par := quickResults(t, 8, true)
	if seq != par {
		t.Fatalf("parallel output diverged from sequential\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}

	checkGolden(t, "determinism_quickscale", seq)
}

// TestFullScaleRecord runs the whole experiment table on a full-scale lab,
// as capbench -exp all -scale full does, and holds the output to the
// committed record byte for byte: results_full.txt for the text and
// fig3_series.csv for the Figure 3 series. A host-timed block is held
// only to its header line and the first field of every other line (the
// learner names). It takes about 8 s on two CPUs, so it runs only with
//
//	go test ./internal/experiment -run TestFullScaleRecord -record
//
// After an intended change, regenerate the record from the repository root:
//
//	go run ./cmd/capbench -exp all -scale full -csv fig3_series.csv > results_full.txt
func TestFullScaleRecord(t *testing.T) {
	if !*record || testing.Short() {
		t.Skip("full-scale run; opt in with -record")
	}
	var text, csv strings.Builder
	results, err := NewLab(FullScale()).Render(&text, "all")
	if err != nil {
		t.Fatalf("Render: %v", err)
	}
	for _, res := range results {
		if fig3, ok := res.(*Fig3Result); ok {
			if err := fig3.WriteCSV(&csv); err != nil {
				t.Fatal(err)
			}
		}
	}

	want := readRecord(t, "results_full.txt")
	got := text.String()
	for i, e := range Experiments() {
		n := len(results[i].String()) + 1 // Render's block: the text and a newline
		gotBlock := got[:n]
		got = got[n:]
		end := n
		if e.HostTimed {
			end = strings.Index(want, "\n\n") + 2 // the block ends at its blank line
			if end < 2 {
				end = len(want)
			}
		}
		end = min(end, len(want))
		wantBlock := want[:end]
		want = want[end:]
		if e.HostTimed {
			gotBlock, wantBlock = rowNames(gotBlock), rowNames(wantBlock)
		}
		if gotBlock != wantBlock {
			t.Fatalf("results_full.txt: %s block differs\n%s", e.Name, firstDiff(gotBlock, wantBlock))
		}
	}
	if want != "" {
		t.Fatalf("results_full.txt: %d bytes past the last block:\n%s", len(want), want)
	}
	if wantCSV := readRecord(t, "fig3_series.csv"); csv.String() != wantCSV {
		t.Fatalf("fig3_series.csv differs\n%s", firstDiff(csv.String(), wantCSV))
	}
}

// readRecord reads a committed record file from the repository root.
func readRecord(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// rowNames keeps a block's header line and the first field of every
// other line: the part of a host-timed block that no host changes.
func rowNames(block string) string {
	lines := strings.Split(block, "\n")
	for i := 1; i < len(lines); i++ {
		if f := strings.Fields(lines[i]); len(f) > 0 {
			lines[i] = f[0]
		}
	}
	return strings.Join(lines, "\n")
}

// firstDiff names the first line on which got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range max(len(g), len(w)) {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got  %q\n want %q", i+1, gl, wl)
		}
	}
	return "(no line differs)"
}
