package experiment

import (
	"fmt"
	"time"

	"hpcap/internal/metrics"
	"hpcap/internal/ml"
	"hpcap/internal/server"
	"hpcap/internal/synopsis"
	"hpcap/internal/tpcw"
)

// timingRow is one learner's measured cost (§V.B): the wall time to build
// a synopsis from the training set (the fastest of three builds) and to
// make a single online decision. The paper reports 90 ms (LR), 10 ms
// (Naive), 1710 ms (SVM) and 50 ms (TAN) on 2006 hardware; on modern
// hardware the absolute numbers shrink but the ordering — SVM far slower
// than the rest, Naive cheapest — must hold.
type timingRow struct {
	Learner string
	Build   time.Duration
	Decide  time.Duration
}

// RunTiming reproduces the learner cost comparison of §V.B: it measures
// synopsis build and single-decision wall time for each learner on the
// ordering-mix training set (app tier, HPC level — the bottleneck-tier
// synopsis the online system exercises most). A row is a learner; the
// "build" and "single decide" cells are durations in nanoseconds.
func (l *Lab) RunTiming() (*Table, error) {
	tr, err := l.TrainingTrace(tpcw.Ordering())
	if err != nil {
		return nil, err
	}
	d, err := Dataset(tr, server.TierApp, metrics.LevelHPC)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Learner cost (§V.B) — %d training instances\n", d.Len()),
		Keys:  []Column{{Name: "learner", HeadFmt: "%-8s"}},
		Cols:  []Column{{Name: "build", HeadFmt: " %14s"}, {Name: "single decide", HeadFmt: " %14s"}},
	}
	for _, learner := range Learners() {
		row, err := timeLearner(learner, d, l.Seed)
		if err != nil {
			return nil, fmt.Errorf("experiment: timing %s: %w", learner.Name, err)
		}
		t.Add([]string{row.Learner}, float64(row.Build), float64(row.Decide))
	}
	return t, nil
}

// timeLearner measures one learner, repeating short operations enough times
// for a stable reading.
func timeLearner(learner ml.Learner, d *ml.Dataset, seed int64) (timingRow, error) {
	// Build: attribute selection plus model fitting, as the online system
	// performs it. The fastest of three equal builds is the cost: one
	// build's wall clock also holds whatever else the host ran meanwhile.
	var syn *synopsis.Synopsis
	var build time.Duration
	for i := range 3 {
		start := time.Now()
		s, err := synopsis.Build("timing", server.TierApp, metrics.LevelHPC, learner, d, seed)
		if err != nil {
			return timingRow{}, err
		}
		if took := time.Since(start); i == 0 || took < build {
			build = took
		}
		syn = s
	}

	// Decide: median-ish estimate over repeated single decisions.
	probe := d.Row(d.Len() / 2)
	var scr ml.Scratch
	const reps = 2000
	start := time.Now()
	for i := 0; i < reps; i++ {
		syn.Predict(probe, &scr)
	}
	decide := time.Since(start) / reps

	return timingRow{Learner: learner.Name, Build: build, Decide: decide}, nil
}
