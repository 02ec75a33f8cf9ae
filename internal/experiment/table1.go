package experiment

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"hpcap/internal/featsel"
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

// Table1Cell is one accuracy cell: a synopsis trained on (workload, tier,
// level) with one learner, evaluated on the test input.
type Table1Cell struct {
	Workload string
	Tier     server.TierID
	Level    metrics.Level
	Learner  string
	BA       float64
}

// Table1Result reproduces one half of the paper's Table I: the balanced
// accuracy of every individual synopsis on one test mix.
type Table1Result struct {
	TestInput string
	Cells     []Table1Cell
}

// Dataset converts one tier/level slice of a trace into an ml.Dataset.
func Dataset(tr *Trace, tier server.TierID, level metrics.Level) (*ml.Dataset, error) {
	d := ml.NewDataset(tr.Names(level))
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
	return synopsis.Build(mix.Name, tier, level, learner, d,
		synopsis.Config{Selection: selection(l.Seed)})
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
// to a Workers=1 run.
func (l *Lab) RunTable1(testKind TestKind) (*Table1Result, error) {
	test, err := l.TestTrace(testKind)
	if err != nil {
		return nil, err
	}
	type spec struct {
		mix     tpcw.Mix
		tier    server.TierID
		level   metrics.Level
		learner ml.Learner
	}
	var specs []spec
	for _, mix := range TrainingMixes() {
		for tier := server.TierID(0); tier < server.NumTiers; tier++ {
			for _, level := range []metrics.Level{metrics.LevelOS, metrics.LevelHPC} {
				for _, learner := range Learners() {
					specs = append(specs, spec{mix, tier, level, learner})
				}
			}
		}
	}
	cells, err := parallel.Map(context.Background(), len(specs), l.workers(), func(i int) (Table1Cell, error) {
		sp := specs[i]
		syn, err := l.BuildSynopsis(sp.mix, sp.tier, sp.level, sp.learner)
		if err != nil {
			return Table1Cell{}, fmt.Errorf("experiment: table1 %s/%s/%s/%s: %w",
				sp.mix.Name, sp.tier, sp.level, sp.learner.Name, err)
		}
		return Table1Cell{
			Workload: sp.mix.Name,
			Tier:     sp.tier,
			Level:    sp.level,
			Learner:  sp.learner.Name,
			BA:       EvaluateSynopsis(syn, test),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table1Result{TestInput: string(testKind), Cells: cells}, nil
}

// Cell returns the accuracy of one cell, or -1 if absent.
func (r *Table1Result) Cell(workload string, tier server.TierID, level metrics.Level, learner string) float64 {
	for _, c := range r.Cells {
		if c.Workload == workload && c.Tier == tier && c.Level == level && c.Learner == learner {
			return c.BA
		}
	}
	return -1
}

// String formats the result like the paper's Table I.
func (r *Table1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Prediction accuracy of individual synopses — %s mix input\n", r.TestInput)
	fmt.Fprintf(&b, "%-10s %-5s | %-7s %-7s %-7s %-7s | %-7s %-7s %-7s %-7s\n",
		"Workload", "Tier", "OS:LR", "Naive", "SVM", "TAN", "HPC:LR", "Naive", "SVM", "TAN")
	type rowKey struct {
		workload string
		tier     server.TierID
	}
	rows := map[rowKey]map[string]float64{}
	var order []rowKey
	for _, c := range r.Cells {
		k := rowKey{c.Workload, c.Tier}
		if rows[k] == nil {
			rows[k] = map[string]float64{}
			order = append(order, k)
		}
		rows[k][c.Level.String()+c.Learner] = c.BA
	}
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].workload != order[j].workload {
			return order[i].workload > order[j].workload // ordering first, as in the paper
		}
		return order[i].tier < order[j].tier
	})
	for _, k := range order {
		m := rows[k]
		fmt.Fprintf(&b, "%-10s %-5s | %-7.3f %-7.3f %-7.3f %-7.3f | %-7.3f %-7.3f %-7.3f %-7.3f\n",
			k.workload, k.tier,
			m["OSLR"], m["OSNaive"], m["OSSVM"], m["OSTAN"],
			m["HPCLR"], m["HPCNaive"], m["HPCSVM"], m["HPCTAN"])
	}
	return b.String()
}

// selection returns the standard attribute-selection config.
func selection(seed int64) featsel.Config {
	return featsel.Config{Seed: seed}
}
