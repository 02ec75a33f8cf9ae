package experiment

import (
	"context"
	"fmt"

	"hpcap/internal/core"
	"hpcap/internal/metrics"
	"hpcap/internal/ml"
	"hpcap/internal/ml/bayes"
	"hpcap/internal/parallel"
	"hpcap/internal/predictor"
)

// TrainMonitor assembles the paper's coordinated system at one metric
// level: TAN synopses per (training mix × tier), a coordinated predictor
// with the given configuration, trained on the training traces. Monitors
// are trained once per (level, config, learner) and cached; the shared
// instance is safe for concurrent prediction through per-caller sessions
// (core.Monitor.NewSession). Callers that adapt a monitor online with
// Feedback should train a private one via core.Train instead.
func (l *Lab) TrainMonitor(level metrics.Level, coordCfg predictor.Config) (*core.Monitor, error) {
	return l.monitor(level, coordCfg, bayes.TANLearner())
}

// trainMonitor performs the actual (uncached) monitor training. The
// training traces — two knee bisections and a generation per mix — are
// seed-isolated and once-cell cached, so they fan out across the Lab's
// workers; the sets are assembled in mix order.
func (l *Lab) trainMonitor(level metrics.Level, coordCfg predictor.Config, learner ml.Learner) (*core.Monitor, error) {
	mixes := TrainingMixes()
	traces, err := parallel.Map(context.Background(), len(mixes), l.workers(), func(i int) (*Trace, error) {
		return l.TrainingTrace(mixes[i])
	})
	if err != nil {
		return nil, err
	}
	var sets []core.TrainingSet
	for i, tr := range traces {
		set := core.TrainingSet{Workload: mixes[i].Name}
		for _, w := range tr.Windows {
			set.Windows = append(set.Windows, core.LabeledWindow{
				Observation: core.Observation{Time: w.Time, Vectors: w.Vectors(level)},
				Overload:    w.Overload,
				Bottleneck:  w.Bottleneck,
			})
		}
		sets = append(sets, set)
	}
	return core.Train(level, MetricNames(level), sets, core.Config{
		Learner:     learner,
		Seed:        l.Seed,
		Coordinator: coordCfg,
	})
}

// EvaluateMonitor runs a trained monitor over a test trace and returns the
// overload balanced accuracy and the bottleneck identification accuracy.
// Bottleneck accuracy is measured over truly overloaded windows: the
// predictor must both flag the overload and name the busier tier. The
// evaluation replays through a private session, so any number of
// evaluations may share one monitor concurrently without perturbing each
// other's temporal history.
func EvaluateMonitor(m *core.Monitor, test *Trace) (overloadBA, bottleneckAcc float64, err error) {
	sess := m.NewSession()
	var conf ml.Confusion
	var overWindows, bottRight int
	for _, w := range test.Windows {
		p, err := sess.Predict(core.Observation{Time: w.Time, Vectors: w.Vectors(m.Level)})
		if err != nil {
			return 0, 0, err
		}
		pred := 0
		if p.Overload {
			pred = 1
		}
		conf.Add(w.Overload, pred)
		if w.Overload == 1 {
			overWindows++
			if p.Overload && p.Bottleneck == w.Bottleneck {
				bottRight++
			}
		}
	}
	bott := 0.0
	if overWindows > 0 {
		bott = float64(bottRight) / float64(overWindows)
	}
	return conf.BalancedAccuracy(), bott, nil
}

// monitorCell is one coordinated monitor, named by its metric level and
// coordinator configuration, replayed over one test workload.
type monitorCell struct {
	level metrics.Level
	cfg   predictor.Config
	kind  TestKind
}

// monitorScore is one monitorCell's overload balanced accuracy and
// bottleneck identification accuracy (see EvaluateMonitor).
type monitorScore struct{ overload, bottleneck float64 }

// scoreMonitors trains (once per level and configuration) each cell's
// monitor and scores it on the cell's test trace. The cells fan out
// across the Lab's workers; cells that share a monitor share its
// once-trained instance, and scores return in cell order, so the result
// is identical to a sequential run.
func (l *Lab) scoreMonitors(cells []monitorCell) ([]monitorScore, error) {
	return parallel.Map(context.Background(), len(cells), l.workers(), func(i int) (monitorScore, error) {
		c := cells[i]
		monitor, err := l.TrainMonitor(c.level, c.cfg)
		if err != nil {
			return monitorScore{}, fmt.Errorf("experiment: train %s monitor (h=%d, δ=%d, %s): %w",
				c.level, c.cfg.HistoryBits, c.cfg.Delta, c.cfg.Scheme, err)
		}
		test, err := l.TestTrace(c.kind)
		if err != nil {
			return monitorScore{}, err
		}
		over, bott, err := EvaluateMonitor(monitor, test)
		return monitorScore{over, bott}, err
	})
}

// RunFig4 reproduces Figures 4(a) and 4(b) with the paper's configuration:
// TAN synopses, 3 history bits, δ=5, optimistic scheme. A row is a test
// workload; the columns "OS overload", "HPC overload", "OS bottleneck" and
// "HPC bottleneck" hold the two panels' accuracies in percent.
func (l *Lab) RunFig4() (*Table, error) {
	cfg := predictor.Config{HistoryBits: 3, Delta: 5, Scheme: predictor.Optimistic}
	levels := []metrics.Level{metrics.LevelOS, metrics.LevelHPC}
	kinds := TestKinds()
	var cells []monitorCell
	for _, level := range levels {
		for _, kind := range kinds {
			cells = append(cells, monitorCell{level, cfg, kind})
		}
	}
	scores, err := l.scoreMonitors(cells)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Fig 4 — coordinated prediction (h=%d, δ=%d, %s)\n", cfg.HistoryBits, cfg.Delta, cfg.Scheme) +
			fmt.Sprintf("%-12s | %-22s | %-22s\n", "", "(a) overload BA %", "(b) bottleneck acc %"),
		Keys: []Column{{Name: "workload", HeadFmt: "%-12s"}},
		Cols: []Column{
			{Name: "OS overload", Head: "OS", HeadFmt: " | %-10s", ValFmt: " | %-10.1f"},
			{Name: "HPC overload", Head: "HPC", HeadFmt: " %-10s", ValFmt: " %-10.1f"},
			{Name: "OS bottleneck", Head: "OS", HeadFmt: " | %-10s", ValFmt: " | %-10.1f"},
			{Name: "HPC bottleneck", Head: "HPC", HeadFmt: " %-10s", ValFmt: " %-10.1f"},
		},
	}
	for k, kind := range kinds {
		osScore, hpcScore := scores[k], scores[len(kinds)+k]
		t.Add([]string{kind.String()}, osScore.overload*100, hpcScore.overload*100,
			osScore.bottleneck*100, hpcScore.bottleneck*100)
	}
	return t, nil
}
