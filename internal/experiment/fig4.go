package experiment

import (
	"context"
	"fmt"
	"strings"

	"hpcap/internal/core"
	"hpcap/internal/metrics"
	"hpcap/internal/ml"
	"hpcap/internal/ml/bayes"
	"hpcap/internal/parallel"
	"hpcap/internal/predictor"
)

// Fig4Row is the coordinated predictor's accuracy on one test workload at
// one metric level.
type Fig4Row struct {
	Workload   TestKind
	Level      metrics.Level
	Overload   float64 // balanced accuracy of overload prediction (Fig 4a)
	Bottleneck float64 // bottleneck identification accuracy (Fig 4b)
}

// Fig4Result reproduces the paper's Figure 4: coordinated overload
// prediction and bottleneck identification accuracy over the four test
// workloads, for OS-level and hardware-counter-level metrics.
type Fig4Result struct {
	Config predictor.Config
	Rows   []Fig4Row
}

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
	var names []string
	for i, tr := range traces {
		names = tr.Names(level)
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
	return core.Train(level, names, sets, core.Config{
		Learner:     learner,
		Synopsis:    core.DefaultSynopsisConfig(l.Seed),
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

// RunFig4 reproduces Figures 4(a) and 4(b) with the paper's configuration:
// TAN synopses, 3 history bits, δ=5, optimistic scheme. The (level ×
// workload) cells fan out across the Lab's workers; rows are assembled in
// the sequential order, and every cell's inputs are cached once-guarded,
// so the result is identical to a sequential run.
func (l *Lab) RunFig4() (*Fig4Result, error) {
	cfg := predictor.Config{HistoryBits: 3, Delta: 5, Scheme: predictor.Optimistic}
	type spec struct {
		level metrics.Level
		kind  TestKind
	}
	var specs []spec
	for _, level := range []metrics.Level{metrics.LevelOS, metrics.LevelHPC} {
		for _, kind := range TestKinds() {
			specs = append(specs, spec{level, kind})
		}
	}
	rows, err := parallel.Map(context.Background(), len(specs), l.workers(), func(i int) (Fig4Row, error) {
		sp := specs[i]
		monitor, err := l.TrainMonitor(sp.level, cfg)
		if err != nil {
			return Fig4Row{}, fmt.Errorf("experiment: train %s monitor: %w", sp.level, err)
		}
		test, err := l.TestTrace(sp.kind)
		if err != nil {
			return Fig4Row{}, err
		}
		over, bott, err := EvaluateMonitor(monitor, test)
		if err != nil {
			return Fig4Row{}, err
		}
		return Fig4Row{
			Workload:   sp.kind,
			Level:      sp.level,
			Overload:   over,
			Bottleneck: bott,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig4Result{Config: cfg, Rows: rows}, nil
}

// Row returns the row for (workload, level), or nil.
func (r *Fig4Result) Row(kind TestKind, level metrics.Level) *Fig4Row {
	for i := range r.Rows {
		if r.Rows[i].Workload == kind && r.Rows[i].Level == level {
			return &r.Rows[i]
		}
	}
	return nil
}

// String renders both panels of Figure 4.
func (r *Fig4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 4 — coordinated prediction (h=%d, δ=%d, %s)\n",
		r.Config.HistoryBits, r.Config.Delta, r.Config.Scheme)
	fmt.Fprintf(&b, "%-12s | %-22s | %-22s\n", "", "(a) overload BA %", "(b) bottleneck acc %")
	fmt.Fprintf(&b, "%-12s | %-10s %-10s | %-10s %-10s\n", "workload", "OS", "HPC", "OS", "HPC")
	for _, kind := range TestKinds() {
		osRow := r.Row(kind, metrics.LevelOS)
		hpcRow := r.Row(kind, metrics.LevelHPC)
		if osRow == nil || hpcRow == nil {
			continue
		}
		fmt.Fprintf(&b, "%-12s | %-10.1f %-10.1f | %-10.1f %-10.1f\n",
			kind, osRow.Overload*100, hpcRow.Overload*100,
			osRow.Bottleneck*100, hpcRow.Bottleneck*100)
	}
	return b.String()
}
