package experiment

import (
	"context"
	"flag"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the determinism golden fixture")

// quickResults renders Table I(a), Table I(b), and Figure 4 on one fresh
// QuickScale lab — the surface the determinism guarantee covers.
func quickResults(t *testing.T, workers int, prewarm bool) string {
	t.Helper()
	l := NewLab(QuickScale())
	l.Workers = workers
	if prewarm {
		if err := l.Prewarm(context.Background()); err != nil {
			t.Fatalf("Prewarm: %v", err)
		}
	}
	t1a, err := l.RunTable1(TestBrowsing)
	if err != nil {
		t.Fatalf("RunTable1(browsing): %v", err)
	}
	t1b, err := l.RunTable1(TestOrdering)
	if err != nil {
		t.Fatalf("RunTable1(ordering): %v", err)
	}
	f4, err := l.RunFig4()
	if err != nil {
		t.Fatalf("RunFig4: %v", err)
	}
	return t1a.String() + "\n" + t1b.String() + "\n" + f4.String()
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
