package main

import "testing"

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-scale", "bogus"}); err == nil {
		t.Error("bogus scale not rejected")
	}
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("unknown flag not rejected")
	}
	for _, name := range []string{"bogus", "fig4a", "table1a,bogus"} {
		if err := run([]string{"-exp", name}); err == nil {
			t.Errorf("experiment %q not rejected", name)
		}
	}
}

func TestRunTimingQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a trace generation")
	}
	if err := run([]string{"-exp", "timing", "-scale", "quick"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunParallelFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a trace generation")
	}
	if err := run([]string{"-exp", "timing", "-scale", "quick", "-parallel", "4"}); err != nil {
		t.Fatal(err)
	}
}
