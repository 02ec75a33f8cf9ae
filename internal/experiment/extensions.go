package experiment

import (
	"context"
	"fmt"

	"hpcap/internal/baseline"
	"hpcap/internal/core"
	"hpcap/internal/metrics"
	"hpcap/internal/ml"
	"hpcap/internal/parallel"
	"hpcap/internal/pi"
	"hpcap/internal/predictor"
	"hpcap/internal/server"
)

// baselineScore is one detector's performance on one test workload.
type baselineScore struct {
	overload float64 // balanced accuracy
	lag      float64 // mean detection lag at sustained onsets, windows
	onsets   int
}

// RunBaselines compares the conventional overload detectors the paper
// argues against (single-PI threshold, response-time threshold,
// utilization threshold) with the coordinated hardware-counter monitor on
// the four test workloads, reporting balanced accuracy and detection lag
// at overload onsets. A row is a workload, then "mean"; each detector has
// a column of balanced accuracy in percent, named after it, and a
// header-less lag column named "<detector> lag". The PI threshold is
// calibrated offline, per tier, on the training traces, and the better
// tier is reported — the strongest version of the single-PI rule. The per-tier
// calibrations and the per-workload evaluations each fan out across the
// Lab's workers; the coordinated monitor is shared and each evaluation
// replays through a private session, so rows match a sequential run.
func (l *Lab) RunBaselines() (*Table, error) {
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
	scores, err := parallel.Map(context.Background(), len(kinds), l.workers(), func(k int) ([]baselineScore, error) {
		kind := kinds[k]
		test, err := l.TestTrace(kind)
		if err != nil {
			return nil, err
		}
		truth := make([]int, len(test.Windows))
		for i, w := range test.Windows {
			truth[i] = w.Overload
		}
		var rows []baselineScore

		// Single-PI thresholds, one per tier; report the better tier.
		bestPI := baselineScore{overload: -1}
		for tier := server.TierID(0); tier < server.NumTiers; tier++ {
			series, err := pi.Series(cals[tier].def, hpcNames, test.HPCSamples[tier])
			if err != nil {
				return nil, err
			}
			preds := make([]int, len(series))
			for i, v := range series {
				preds[i] = cals[tier].th.Predict(v)
			}
			row := scoreDetector(truth, preds)
			if row.overload > bestPI.overload {
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
		rows = append(rows, scoreDetector(truth, preds))

		// Utilization trigger on the busier tier's total utilization.
		util := &baseline.UtilDetector{}
		for i, w := range test.Windows {
			u := w.Util[server.TierApp]
			if w.Util[server.TierDB] > u {
				u = w.Util[server.TierDB]
			}
			preds[i] = util.Predict(u)
		}
		rows = append(rows, scoreDetector(truth, preds))

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
		rows = append(rows, scoreDetector(truth, preds))
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	detectors := []string{"pi-threshold", "rt-threshold", "util-threshold", "coordinated-hpc"}
	t := &Table{
		Title: "Baseline comparison — overload BA % (detection lag, windows)\n",
		Keys:  []Column{{Name: "workload", HeadFmt: "%-12s"}},
	}
	for _, d := range detectors {
		t.Cols = append(t.Cols,
			Column{Name: d, HeadFmt: " %18s", ValFmt: " %11.1f"},
			Column{Name: d + " lag", ValFmt: " (%3.1f)"})
	}
	for k, kind := range kinds {
		var vals []float64
		for _, s := range scores[k] {
			vals = append(vals, s.overload*100, s.lag)
		}
		t.Add([]string{kind.String()}, vals...)
	}
	// The mean row: balanced accuracy over every workload, lag over the
	// workloads with at least one onset.
	var mean []float64
	for d := range detectors {
		var ba, lag float64
		lagged := 0
		for k := range kinds {
			s := scores[k][d]
			ba += s.overload
			if s.onsets > 0 {
				lag += s.lag
				lagged++
			}
		}
		if lagged > 0 {
			lag /= float64(lagged)
		}
		mean = append(mean, ba/float64(len(kinds))*100, lag)
	}
	t.Add([]string{"mean"}, mean...)
	return t, nil
}

// scoreDetector computes balanced accuracy and detection lag for one
// detector's predictions.
func scoreDetector(truth, preds []int) baselineScore {
	var c ml.Confusion
	for i := range truth {
		c.Add(truth[i], preds[i])
	}
	lag, onsets := baseline.DetectionLag(truth, preds)
	return baselineScore{c.BalancedAccuracy(), lag, onsets}
}

// RunLevelComparison compares OS, HPC, and combined OS+HPC monitors — the
// combination the paper's conclusion proposes for future work: it trains
// a coordinated monitor per metric level and evaluates all four test
// workloads. A row is a workload, a column a level, and a cell the
// overload balanced accuracy in percent.
func (l *Lab) RunLevelComparison() (*Table, error) {
	levels, kinds := metrics.Levels(), TestKinds()
	var cells []monitorCell
	for _, kind := range kinds {
		for _, level := range levels {
			cells = append(cells, monitorCell{level, predictor.Config{}, kind})
		}
	}
	scores, err := l.scoreMonitors(cells)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Metric-level comparison (paper's future-work extension) — overload BA %\n",
		Keys:  []Column{{Name: "workload", HeadFmt: "%-12s"}},
	}
	for _, level := range levels {
		t.Cols = append(t.Cols, Column{Name: level.String(), HeadFmt: " %8s", ValFmt: " %8.1f"})
	}
	for k, kind := range kinds {
		vals := make([]float64, len(levels))
		for i := range vals {
			vals[i] = scores[k*len(levels)+i].overload * 100
		}
		t.Add([]string{kind.String()}, vals...)
	}
	return t, nil
}
