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

// goldenEntries are the entries the determinism golden holds, as
// capbench -exp table1a,table1b,fig4 prints them.
var goldenEntries = map[string]bool{"table1a": true, "table1b": true, "fig4": true}

// quickResults renders every entry that is not host-timed on one fresh
// QuickScale lab and returns the whole text and the golden part: the
// golden entries' blocks, less the final newline, which the golden
// predates.
func quickResults(t *testing.T, workers int, prewarm bool) (all, golden string) {
	t.Helper()
	l := NewLab(QuickScale())
	l.Workers = workers
	if prewarm {
		if err := l.Prewarm(context.Background()); err != nil {
			t.Fatalf("Prewarm: %v", err)
		}
	}
	var names []string
	for _, e := range Experiments() {
		if !e.HostTimed {
			names = append(names, e.Name)
		}
	}
	var b, g strings.Builder
	tables, err := l.Render(&b, strings.Join(names, ","))
	if err != nil {
		t.Fatalf("Render: %v", err)
	}
	for i, name := range names {
		if goldenEntries[name] {
			g.WriteString(tables[i].String() + "\n")
		}
	}
	return b.String(), strings.TrimSuffix(g.String(), "\n")
}

// TestDeterminismParallelMatchesSequential is the tentpole guarantee: a
// Workers=8 run (with Prewarm racing the cache fills) produces output
// byte-identical to the strictly sequential Workers=1 run for every entry
// that is not host-timed, and the Table I and Figure 4 blocks match the
// committed golden fixture. Regenerate the fixture with
//
//	go test ./internal/experiment -run TestDeterminism -update
func TestDeterminismParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("two full QuickScale evaluations; skipped in -short")
	}
	seq, golden := quickResults(t, 1, false)
	par, _ := quickResults(t, 8, true)
	if seq != par {
		t.Fatalf("parallel output diverged from sequential\n%s", firstDiff(par, seq))
	}

	checkGolden(t, "determinism_quickscale", golden)
}

// TestFullScaleRecord runs the whole experiment table on a full-scale lab,
// as capbench -exp all -scale full does, and holds the output to the
// committed record byte for byte: results_full.txt for the text and
// fig3_series.csv for the Figure 3 series. A host-timed block is held
// only to its title, its header and its rows' names. It takes about 8 s
// on two CPUs, so it runs only with
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
	l := NewLab(FullScale())
	var text, csv strings.Builder
	tables, err := l.Render(&text, "all")
	if err != nil {
		t.Fatalf("Render: %v", err)
	}
	fig3, err := l.RunFig3()
	if err != nil {
		t.Fatal(err)
	}
	if err := fig3.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}

	// Render writes each table's text and a newline, so the record splits
	// into blocks at the tables' lengths; a host-timed block ends at its
	// blank line instead.
	want := readRecord(t, "results_full.txt")
	got := text.String()
	for i, e := range Experiments() {
		tab := tables[i]
		n := len(tab.String()) + 1
		gotBlock := got[:n]
		got = got[n:]
		end := n
		if e.HostTimed {
			end = strings.Index(want, "\n\n") + 2
			if end < 2 {
				end = len(want)
			}
		}
		end = min(end, len(want))
		wantBlock := want[:end]
		want = want[end:]
		if e.HostTimed {
			checkHostTimed(t, e.Name, tab, wantBlock)
			continue
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

// checkHostTimed holds a host-timed record block to what no host changes:
// the table's title and header (the table rendered with no rows), then
// one line per row that starts with the row's keys.
func checkHostTimed(t *testing.T, name string, tab *Table, block string) {
	t.Helper()
	head := (&Table{Title: tab.Title, Keys: tab.Keys, Cols: tab.Cols}).String()
	if !strings.HasPrefix(block, head) {
		t.Fatalf("results_full.txt: %s title or header differs\n%s", name, firstDiff(block[:min(len(head), len(block))], head))
	}
	lines := strings.Split(strings.TrimSuffix(strings.TrimPrefix(block, head), "\n\n"), "\n")
	if len(lines) != len(tab.Rows) {
		t.Fatalf("results_full.txt: %s has %d rows, the table %d", name, len(lines), len(tab.Rows))
	}
	for i, r := range tab.Rows {
		if f := strings.Fields(lines[i]); len(f) < len(r.Keys) || strings.Join(f[:len(r.Keys)], " ") != strings.Join(r.Keys, " ") {
			t.Errorf("results_full.txt: %s row %d is %q, want row %q", name, i+1, lines[i], strings.Join(r.Keys, " "))
		}
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
