package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpcap/internal/experiment"
)

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
	// -csv writes only fig3's series: without fig3 it is refused before any
	// experiment runs, and no file appears.
	csv := filepath.Join(t.TempDir(), "x.csv")
	if err := run([]string{"-scale", "quick", "-exp", "table1a", "-csv", csv}); err == nil {
		t.Error("-csv without fig3 not rejected")
	}
	if _, err := os.Stat(csv); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("-csv without fig3 left %s behind (stat: %v)", csv, err)
	}
}

// TestRunWritesFig3CSV checks -csv's success path: the file holds the
// Figure 3 series of a fresh lab at the same scale and seed.
func TestRunWritesFig3CSV(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a trace generation")
	}
	path := filepath.Join(t.TempDir(), "fig3.csv")
	if err := run([]string{"-exp", "fig3", "-scale", "quick", "-csv", path}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiment.NewLab(experiment.QuickScale()).RunFig3()
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := res.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if string(got) != want.String() {
		t.Errorf("-csv wrote %d bytes that differ from RunFig3's %d-byte series", len(got), want.Len())
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
