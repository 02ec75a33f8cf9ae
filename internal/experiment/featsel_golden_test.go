package experiment

import (
	"fmt"
	"strings"
	"testing"

	"hpcap/internal/featsel"
	"hpcap/internal/metrics"
	"hpcap/internal/server"
)

// selectionResults runs the paper's attribute selection for every
// (training mix × tier × level × learner) combination at QuickScale and
// renders the chosen attribute sets and CV scores at full float precision.
func selectionResults(t *testing.T) string {
	t.Helper()
	l := NewLab(QuickScale())
	var b strings.Builder
	for _, mix := range TrainingMixes() {
		tr, err := l.TrainingTrace(mix)
		if err != nil {
			t.Fatalf("TrainingTrace(%s): %v", mix.Name, err)
		}
		for tier := server.TierID(0); tier < server.NumTiers; tier++ {
			for _, level := range []metrics.Level{metrics.LevelOS, metrics.LevelHPC} {
				d, err := Dataset(tr, tier, level)
				if err != nil {
					t.Fatalf("Dataset(%s/%s/%s): %v", mix.Name, tier, level, err)
				}
				for _, learner := range Learners() {
					res, err := featsel.Select(learner, d, l.Seed)
					if err != nil {
						t.Fatalf("Select(%s/%s/%s/%s): %v",
							mix.Name, tier, level, learner.Name, err)
					}
					names := make([]string, len(res.Attrs))
					for i, a := range res.Attrs {
						names[i] = d.AttrNames[a]
					}
					fmt.Fprintf(&b, "%s/%s/%s/%s attrs=[%s] cv=%.17g\n",
						mix.Name, tier, level, learner.Name,
						strings.Join(names, " "), res.CV)
				}
			}
		}
	}
	return b.String()
}

// TestAttributeSelectionGolden pins the selected attribute sets and their
// cross-validated balanced accuracies for all four learners, both training
// mixes, both tiers, and both metric levels. Any optimization of the
// training path must leave every line byte-identical: the fast path is
// required to change no decisions. Regenerate (only for intended
// behavioral changes) with
//
//	go test ./internal/experiment -run TestAttributeSelectionGolden -update
func TestAttributeSelectionGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("32 full wrapper selections at QuickScale; skipped in -short")
	}
	got := selectionResults(t)
	checkGolden(t, "featsel_quickscale", got)
}
