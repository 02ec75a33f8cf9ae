package experiment

import (
	"fmt"
	"strings"
	"time"

	"hpcap/internal/metrics"
	"hpcap/internal/ml"
	"hpcap/internal/server"
	"hpcap/internal/synopsis"
	"hpcap/internal/tpcw"
)

// TimingRow is one learner's measured cost (§V.B): the wall time to build a
// synopsis from the training set and to make a single online decision. The
// paper reports 90 ms (LR), 10 ms (Naive), 1710 ms (SVM) and 50 ms (TAN) on
// 2006 hardware; on modern hardware the absolute numbers shrink but the
// ordering — SVM far slower than the rest, Naive cheapest — must hold.
type TimingRow struct {
	Learner string
	Build   time.Duration
	Decide  time.Duration
}

// TimingResult reproduces the learner cost comparison of §V.B.
type TimingResult struct {
	TrainingInstances int
	Rows              []TimingRow
}

// RunTiming measures synopsis build and single-decision wall time for each
// learner on the ordering-mix training set (app tier, HPC level — the
// bottleneck-tier synopsis the online system exercises most).
func (l *Lab) RunTiming() (*TimingResult, error) {
	tr, err := l.TrainingTrace(tpcw.Ordering())
	if err != nil {
		return nil, err
	}
	d, err := Dataset(tr, server.TierApp, metrics.LevelHPC)
	if err != nil {
		return nil, err
	}
	res := &TimingResult{TrainingInstances: d.Len()}
	for _, learner := range Learners() {
		row, err := timeLearner(learner, d, l.Seed)
		if err != nil {
			return nil, fmt.Errorf("experiment: timing %s: %w", learner.Name, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// timeLearner measures one learner, repeating short operations enough times
// for a stable reading.
func timeLearner(learner ml.Learner, d *ml.Dataset, seed int64) (TimingRow, error) {
	// Build: attribute selection plus model fitting, as the online system
	// performs it.
	start := time.Now()
	syn, err := synopsis.Build("timing", server.TierApp, metrics.LevelHPC, learner, d,
		synopsis.Config{Selection: selection(seed)})
	if err != nil {
		return TimingRow{}, err
	}
	build := time.Since(start)

	// Decide: median-ish estimate over repeated single decisions.
	probe := d.Row(d.Len() / 2)
	var scr ml.Scratch
	const reps = 2000
	start = time.Now()
	for i := 0; i < reps; i++ {
		syn.Predict(probe, &scr)
	}
	decide := time.Since(start) / reps

	return TimingRow{Learner: learner.Name, Build: build, Decide: decide}, nil
}

// Row returns the row for a learner, or nil.
func (r *TimingResult) Row(learner string) *TimingRow {
	for i := range r.Rows {
		if r.Rows[i].Learner == learner {
			return &r.Rows[i]
		}
	}
	return nil
}

// String renders the timing table.
func (r *TimingResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Learner cost (§V.B) — %d training instances\n", r.TrainingInstances)
	fmt.Fprintf(&b, "%-8s %14s %14s\n", "learner", "build", "single decide")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %14s %14s\n", row.Learner, row.Build, row.Decide)
	}
	return b.String()
}
