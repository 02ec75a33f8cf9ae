package experiment

import (
	"context"
	"fmt"
	"strings"

	"hpcap/internal/baseline"
	"hpcap/internal/core"
	"hpcap/internal/metrics"
	"hpcap/internal/ml"
	"hpcap/internal/parallel"
	"hpcap/internal/pi"
	"hpcap/internal/predictor"
	"hpcap/internal/server"
)

// BaselineRow is one detector's performance on one test workload.
type BaselineRow struct {
	Detector string
	Workload TestKind
	Overload float64 // balanced accuracy
	Lag      float64 // mean detection lag at sustained onsets, windows
	Onsets   int
}

// BaselineResult compares the conventional overload detectors the paper
// argues against (single-PI threshold, response-time threshold,
// utilization threshold) with the coordinated hardware-counter monitor.
type BaselineResult struct {
	Rows []BaselineRow
}

// RunBaselines evaluates each baseline detector and the coordinated HPC
// monitor on the four test workloads, reporting balanced accuracy and
// detection lag at overload onsets. The PI threshold is calibrated
// offline, per tier, on the training traces, and the better tier is
// reported — the strongest version of the single-PI rule. The per-tier
// calibrations and the per-workload evaluations each fan out across the
// Lab's workers; the coordinated monitor is shared and each evaluation
// replays through a private session, so rows match a sequential run.
func (l *Lab) RunBaselines() (*BaselineResult, error) {
	hpcNames := MetricNames(metrics.LevelHPC)
	// Calibrate PI thresholds per tier on the concatenated training data.
	type calibration struct {
		def pi.Definition
		th  *baseline.PIThreshold
	}
	cals, err := parallel.Map(context.Background(), int(server.NumTiers), l.workers(), func(t int) (calibration, error) {
		tier := server.TierID(t)
		var series []float64
		var labels []int
		var def pi.Definition
		for _, mix := range TrainingMixes() {
			tr, err := l.TrainingTrace(mix)
			if err != nil {
				return calibration{}, err
			}
			sel, err := pi.Select(pi.DefaultCandidates(), hpcNames, tr.HPCSamples[tier])
			if err != nil {
				return calibration{}, err
			}
			def = sel.Definition
			s, err := pi.Series(sel.Definition, hpcNames, tr.HPCSamples[tier])
			if err != nil {
				return calibration{}, err
			}
			series = append(series, s...)
			for _, w := range tr.Windows {
				labels = append(labels, w.Overload)
			}
		}
		th, err := baseline.CalibratePIThreshold(series, labels)
		if err != nil {
			return calibration{}, fmt.Errorf("experiment: calibrate PI threshold (%s): %w", tier, err)
		}
		return calibration{def, th}, nil
	})
	if err != nil {
		return nil, err
	}

	monitor, err := l.TrainMonitor(metrics.LevelHPC, predictor.Config{})
	if err != nil {
		return nil, err
	}

	kinds := TestKinds()
	rowGroups, err := parallel.Map(context.Background(), len(kinds), l.workers(), func(k int) ([]BaselineRow, error) {
		kind := kinds[k]
		test, err := l.TestTrace(kind)
		if err != nil {
			return nil, err
		}
		truth := make([]int, len(test.Windows))
		for i, w := range test.Windows {
			truth[i] = w.Overload
		}
		var rows []BaselineRow

		// Single-PI thresholds, one per tier; report the better tier.
		bestPI := BaselineRow{Detector: "pi-threshold", Workload: kind, Overload: -1}
		for tier := server.TierID(0); tier < server.NumTiers; tier++ {
			series, err := pi.Series(cals[tier].def, hpcNames, test.HPCSamples[tier])
			if err != nil {
				return nil, err
			}
			preds := make([]int, len(series))
			for i, v := range series {
				preds[i] = cals[tier].th.Predict(v)
			}
			row := scoreRow("pi-threshold", kind, truth, preds)
			if row.Overload > bestPI.Overload {
				bestPI = row
			}
		}
		rows = append(rows, bestPI)

		// Response-time trigger at the conservative half-SLA setting.
		rt := &baseline.RTDetector{Threshold: 0.5}
		rt.Reset()
		preds := make([]int, len(test.Windows))
		for i, w := range test.Windows {
			preds[i] = rt.Predict(w.MeanRT)
		}
		rows = append(rows, scoreRow("rt-threshold", kind, truth, preds))

		// Utilization trigger on the busier tier's total utilization.
		util := &baseline.UtilDetector{}
		for i, w := range test.Windows {
			u := w.Util[server.TierApp]
			if w.Util[server.TierDB] > u {
				u = w.Util[server.TierDB]
			}
			preds[i] = util.Predict(u)
		}
		rows = append(rows, scoreRow("util-threshold", kind, truth, preds))

		// The coordinated hardware-counter monitor, through a private
		// session so concurrent workloads don't share a history stream.
		sess := monitor.NewSession()
		for i, w := range test.Windows {
			p, err := sess.Predict(core.Observation{Time: w.Time, Vectors: w.HPC})
			if err != nil {
				return nil, err
			}
			preds[i] = 0
			if p.Overload {
				preds[i] = 1
			}
		}
		rows = append(rows, scoreRow("coordinated-hpc", kind, truth, preds))
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	res := &BaselineResult{}
	for _, rows := range rowGroups {
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}

// scoreRow computes balanced accuracy and detection lag for one detector.
func scoreRow(name string, kind TestKind, truth, preds []int) BaselineRow {
	var c ml.Confusion
	for i := range truth {
		c.Add(truth[i], preds[i])
	}
	lag, onsets := baseline.DetectionLag(truth, preds)
	return BaselineRow{Detector: name, Workload: kind, Overload: c.BalancedAccuracy(), Lag: lag, Onsets: onsets}
}

// Row returns the row for (detector, workload), or nil.
func (r *BaselineResult) Row(detector string, kind TestKind) *BaselineRow {
	for i := range r.Rows {
		if r.Rows[i].Detector == detector && r.Rows[i].Workload == kind {
			return &r.Rows[i]
		}
	}
	return nil
}

// MeanBA averages one detector's balanced accuracy over the four test
// workloads.
func (r *BaselineResult) MeanBA(detector string) float64 {
	var sum float64
	n := 0
	for _, row := range r.Rows {
		if row.Detector == detector {
			sum += row.Overload
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanLag averages one detector's detection lag over workloads with at
// least one onset.
func (r *BaselineResult) MeanLag(detector string) float64 {
	var sum float64
	n := 0
	for _, row := range r.Rows {
		if row.Detector == detector && row.Onsets > 0 {
			sum += row.Lag
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// String renders the baseline comparison.
func (r *BaselineResult) String() string {
	var b strings.Builder
	b.WriteString("Baseline comparison — overload BA % (detection lag, windows)\n")
	detectors := []string{"pi-threshold", "rt-threshold", "util-threshold", "coordinated-hpc"}
	fmt.Fprintf(&b, "%-12s", "workload")
	for _, d := range detectors {
		fmt.Fprintf(&b, " %18s", d)
	}
	b.WriteString("\n")
	for _, kind := range TestKinds() {
		fmt.Fprintf(&b, "%-12s", kind)
		for _, d := range detectors {
			if row := r.Row(d, kind); row != nil {
				fmt.Fprintf(&b, " %11.1f (%3.1f)", row.Overload*100, row.Lag)
			} else {
				fmt.Fprintf(&b, " %18s", "-")
			}
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-12s", "mean")
	for _, d := range detectors {
		fmt.Fprintf(&b, " %11.1f (%3.1f)", r.MeanBA(d)*100, r.MeanLag(d))
	}
	b.WriteString("\n")
	return b.String()
}

// LevelRow is the coordinated monitor's accuracy at one metric level on
// one workload.
type LevelRow struct {
	Level    metrics.Level
	Workload TestKind
	Overload float64
}

// LevelResult compares OS, HPC, and combined OS+HPC monitors — the
// combination the paper's conclusion proposes for future work.
type LevelResult struct {
	Rows []LevelRow
}

// RunLevelComparison trains a coordinated monitor per metric level
// (including the combined level) and evaluates all four test workloads.
// The (level × workload) cells fan out across the Lab's workers; rows
// assemble in the sequential sweep order.
func (l *Lab) RunLevelComparison() (*LevelResult, error) {
	type spec struct {
		level metrics.Level
		kind  TestKind
	}
	var specs []spec
	for _, level := range metrics.Levels() {
		for _, kind := range TestKinds() {
			specs = append(specs, spec{level, kind})
		}
	}
	rows, err := parallel.Map(context.Background(), len(specs), l.workers(), func(i int) (LevelRow, error) {
		sp := specs[i]
		monitor, err := l.TrainMonitor(sp.level, predictor.Config{})
		if err != nil {
			return LevelRow{}, fmt.Errorf("experiment: level %s: %w", sp.level, err)
		}
		test, err := l.TestTrace(sp.kind)
		if err != nil {
			return LevelRow{}, err
		}
		over, _, err := EvaluateMonitor(monitor, test)
		if err != nil {
			return LevelRow{}, err
		}
		return LevelRow{Level: sp.level, Workload: sp.kind, Overload: over}, nil
	})
	if err != nil {
		return nil, err
	}
	return &LevelResult{Rows: rows}, nil
}

// Row returns the row for (level, workload), or nil.
func (r *LevelResult) Row(level metrics.Level, kind TestKind) *LevelRow {
	for i := range r.Rows {
		if r.Rows[i].Level == level && r.Rows[i].Workload == kind {
			return &r.Rows[i]
		}
	}
	return nil
}

// String renders the level comparison.
func (r *LevelResult) String() string {
	var b strings.Builder
	b.WriteString("Metric-level comparison (paper's future-work extension) — overload BA %\n")
	fmt.Fprintf(&b, "%-12s %8s %8s %8s\n", "workload", "OS", "HPC", "OS+HPC")
	for _, kind := range TestKinds() {
		fmt.Fprintf(&b, "%-12s", kind)
		for _, level := range metrics.Levels() {
			if row := r.Row(level, kind); row != nil {
				fmt.Fprintf(&b, " %8.1f", row.Overload*100)
			} else {
				fmt.Fprintf(&b, " %8s", "-")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
