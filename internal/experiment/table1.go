package experiment

import (
	"context"
	"fmt"
	"slices"

	"hpcap/internal/metrics"
	"hpcap/internal/ml"
	"hpcap/internal/ml/bayes"
	"hpcap/internal/ml/linreg"
	"hpcap/internal/ml/svm"
	"hpcap/internal/parallel"
	"hpcap/internal/server"
	"hpcap/internal/synopsis"
	"hpcap/internal/tpcw"
)

// Learners returns the four synopsis builders in the paper's column order:
// LR, Naive, SVM, TAN.
func Learners() []ml.Learner {
	return []ml.Learner{
		linreg.Learner(),
		bayes.NaiveLearner(),
		svm.Learner(),
		bayes.TANLearner(),
	}
}

// Dataset converts one tier/level slice of a trace into an ml.Dataset.
func Dataset(tr *Trace, tier server.TierID, level metrics.Level) (*ml.Dataset, error) {
	d := ml.NewDataset(MetricNames(level))
	for _, w := range tr.Windows {
		if err := d.Add(w.Vectors(level)[tier], w.Overload); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// BuildSynopsis builds one synopsis from a training trace.
func (l *Lab) BuildSynopsis(mix tpcw.Mix, tier server.TierID, level metrics.Level,
	learner ml.Learner) (*synopsis.Synopsis, error) {
	tr, err := l.TrainingTrace(mix)
	if err != nil {
		return nil, err
	}
	d, err := Dataset(tr, tier, level)
	if err != nil {
		return nil, err
	}
	return synopsis.Build(mix.Name, tier, level, learner, d, l.Seed)
}

// EvaluateSynopsis scores a synopsis on a test trace.
func EvaluateSynopsis(syn *synopsis.Synopsis, test *Trace) float64 {
	var conf ml.Confusion
	var scr ml.Scratch
	for _, w := range test.Windows {
		conf.Add(w.Overload, syn.Predict(w.Vectors(syn.Level)[syn.Tier], &scr))
	}
	return conf.BalancedAccuracy()
}

// RunTable1 reproduces Table I(a) (testKind = browsing) or I(b)
// (testKind = ordering): every (training workload × tier × level × learner)
// synopsis evaluated on the test input. The 32 cells are independent given
// the cached traces, so they fan out across the Lab's workers; cells are
// assembled in the sequential loop order, making the result byte-identical
// to a Workers=1 run. A row is a (workload, tier), ordering first as in the
// paper; a column is a level and learner, named like "HPC:TAN".
func (l *Lab) RunTable1(testKind TestKind) (*Table, error) {
	test, err := l.TestTrace(testKind)
	if err != nil {
		return nil, err
	}
	levels := []metrics.Level{metrics.LevelOS, metrics.LevelHPC}
	learners := Learners()
	t := &Table{
		Title: fmt.Sprintf("Prediction accuracy of individual synopses — %s mix input\n", testKind),
		Keys:  []Column{{Name: "Workload", HeadFmt: "%-10s"}, {Name: "Tier", HeadFmt: " %-5s"}},
	}
	for _, level := range levels {
		for i, learner := range learners {
			c := Column{Name: level.String() + ":" + learner.Name, HeadFmt: " %-7s", ValFmt: " %-7.3f"}
			if i == 0 {
				c.HeadFmt, c.ValFmt = " | %-7s", " | %-7.3f"
			} else {
				c.Head = learner.Name
			}
			t.Cols = append(t.Cols, c)
		}
	}
	type spec struct {
		mix     tpcw.Mix
		tier    server.TierID
		level   metrics.Level
		learner ml.Learner
	}
	var specs []spec
	mixes := TrainingMixes()
	slices.Reverse(mixes) // ordering first, as in the paper
	for _, mix := range mixes {
		for tier := server.TierID(0); tier < server.NumTiers; tier++ {
			for _, level := range levels {
				for _, learner := range learners {
					specs = append(specs, spec{mix, tier, level, learner})
				}
			}
		}
	}
	cells, err := parallel.Map(context.Background(), len(specs), l.workers(), func(i int) (float64, error) {
		sp := specs[i]
		syn, err := l.BuildSynopsis(sp.mix, sp.tier, sp.level, sp.learner)
		if err != nil {
			return 0, fmt.Errorf("experiment: table1 %s/%s/%s/%s: %w",
				sp.mix.Name, sp.tier, sp.level, sp.learner.Name, err)
		}
		return EvaluateSynopsis(syn, test), nil
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(cells); i += len(t.Cols) {
		sp := specs[i]
		t.Add([]string{sp.mix.Name, sp.tier.String()}, cells[i:i+len(t.Cols)]...)
	}
	return t, nil
}
