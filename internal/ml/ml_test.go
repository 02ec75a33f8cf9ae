package ml_test

import (
	"testing"

	"hpcap/internal/ml"
	"hpcap/internal/ml/mltest"
)

func TestDatasetAdd(t *testing.T) {
	d := ml.NewDataset([]string{"a", "b"})
	if err := d.Add([]float64{1, 2}, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Add([]float64{1}, 0); err == nil {
		t.Error("wrong width not rejected")
	}
	if err := d.Add([]float64{1, 2}, 2); err == nil {
		t.Error("bad label not rejected")
	}
	if d.Len() != 1 || d.NumAttrs() != 2 {
		t.Errorf("Len=%d NumAttrs=%d", d.Len(), d.NumAttrs())
	}
}

func TestDatasetAddCopies(t *testing.T) {
	d := ml.NewDataset([]string{"a"})
	vals := []float64{5}
	if err := d.Add(vals, 0); err != nil {
		t.Fatal(err)
	}
	vals[0] = 99
	if d.At(0, 0) != 5 {
		t.Error("Add did not copy the value slice")
	}
}

func TestClassCounts(t *testing.T) {
	d := ml.NewDataset([]string{"a"})
	for i := 0; i < 7; i++ {
		label := 0
		if i < 3 {
			label = 1
		}
		if err := d.Add([]float64{0}, label); err != nil {
			t.Fatal(err)
		}
	}
	n0, n1 := d.ClassCounts()
	if n0 != 4 || n1 != 3 {
		t.Errorf("ClassCounts = %d, %d; want 4, 3", n0, n1)
	}
}

func TestColumnAndProject(t *testing.T) {
	d := ml.NewDataset([]string{"a", "b", "c"})
	if err := d.Add([]float64{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Add([]float64{4, 5, 6}, 1); err != nil {
		t.Fatal(err)
	}
	col := d.Column(1)
	if col[0] != 2 || col[1] != 5 {
		t.Errorf("Column(1) = %v", col)
	}
	proj, err := d.Project([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if proj.AttrNames[0] != "c" || proj.AttrNames[1] != "a" {
		t.Errorf("projected names = %v", proj.AttrNames)
	}
	if row := proj.Row(1); row[0] != 6 || row[1] != 4 {
		t.Errorf("projected row = %v", row)
	}
	if proj.At(0, 0) != 3 || proj.At(0, 1) != 1 {
		t.Errorf("projected At = %v, %v", proj.At(0, 0), proj.At(0, 1))
	}
	if proj.Y[1] != 1 {
		t.Error("projected label lost")
	}
	if _, err := d.Project([]int{5}); err == nil {
		t.Error("out-of-range projection not rejected")
	}
	// Projections are views: appending would alias foreign storage.
	if err := proj.Add([]float64{0, 0}, 0); err == nil {
		t.Error("append to a projected view not rejected")
	}
	// A projection of a projection composes the column maps.
	pp, err := proj.Project([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if pp.AttrNames[0] != "a" || pp.At(1, 0) != 4 {
		t.Errorf("nested projection = %v / %v", pp.AttrNames, pp.At(1, 0))
	}
	// Subsetting a projection keeps the column view.
	sp := proj.Subset([]int{1})
	if sp.At(0, 0) != 6 || sp.Y[0] != 1 {
		t.Errorf("subset of projection = %v / %v", sp.At(0, 0), sp.Y[0])
	}
}

func TestSubset(t *testing.T) {
	d := mltest.LinearlySeparable(10, 0.1, 1)
	sub := d.Subset([]int{0, 3, 7})
	if sub.Len() != 3 {
		t.Fatalf("Subset len = %d", sub.Len())
	}
	if sub.Y[1] != d.Y[3] {
		t.Error("subset labels misaligned")
	}
}

func TestConfusionAndBalancedAccuracy(t *testing.T) {
	var c ml.Confusion
	// 8 positives: 6 right; 2 negatives: 1 right.
	for i := 0; i < 6; i++ {
		c.Add(1, 1)
	}
	c.Add(1, 0)
	c.Add(1, 0)
	c.Add(0, 0)
	c.Add(0, 1)
	wantBA := (6.0/8 + 1.0/2) / 2
	if got := c.BalancedAccuracy(); got != wantBA {
		t.Errorf("BA = %v, want %v", got, wantBA)
	}
	if got := c.Accuracy(); got != 7.0/10 {
		t.Errorf("accuracy = %v, want 0.7", got)
	}
}

func TestBalancedAccuracyDegenerate(t *testing.T) {
	var c ml.Confusion
	if got := c.BalancedAccuracy(); got != 0 {
		t.Errorf("empty BA = %v, want 0", got)
	}
	var onlyPos ml.Confusion
	onlyPos.Add(1, 1)
	onlyPos.Add(1, 0)
	if got := onlyPos.BalancedAccuracy(); got != 0.5 {
		t.Errorf("positives-only BA = %v, want 0.5", got)
	}
	var onlyNeg ml.Confusion
	onlyNeg.Add(0, 0)
	if got := onlyNeg.BalancedAccuracy(); got != 1 {
		t.Errorf("negatives-only BA = %v, want 1", got)
	}
}

func TestStratifiedFolds(t *testing.T) {
	d := ml.NewDataset([]string{"a"})
	// 30 instances, 10 positive.
	for i := 0; i < 30; i++ {
		label := 0
		if i < 10 {
			label = 1
		}
		if err := d.Add([]float64{float64(i)}, label); err != nil {
			t.Fatal(err)
		}
	}
	folds, err := ml.StratifiedFolds(d, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 5 {
		t.Fatalf("folds = %d, want 5", len(folds))
	}
	seen := map[int]bool{}
	for _, f := range folds {
		pos := 0
		for _, r := range f {
			if seen[r] {
				t.Fatalf("row %d in two folds", r)
			}
			seen[r] = true
			if d.Y[r] == 1 {
				pos++
			}
		}
		if pos != 2 {
			t.Errorf("fold has %d positives, want 2 (stratified)", pos)
		}
	}
	if len(seen) != 30 {
		t.Errorf("folds cover %d rows, want 30", len(seen))
	}
}

func TestStratifiedFoldsErrors(t *testing.T) {
	d := mltest.LinearlySeparable(10, 0.1, 1)
	if _, err := ml.StratifiedFolds(d, 1, 0); err == nil {
		t.Error("k=1 not rejected")
	}
	if _, err := ml.StratifiedFolds(d, 11, 0); err == nil {
		t.Error("k>n not rejected")
	}
}

// majorityLearner predicts the training majority class, for CV plumbing
// tests.
type majorityClassifier struct{ class int }

func (m *majorityClassifier) Fit(d *ml.Dataset) error {
	n0, n1 := d.ClassCounts()
	if n0 == 0 || n1 == 0 {
		return ml.ErrOneClass
	}
	if n1 > n0 {
		m.class = 1
	}
	return nil
}

func (m *majorityClassifier) Predict([]float64, *ml.Scratch) int { return m.class }

func TestCrossValidateMajorityIsHalf(t *testing.T) {
	d := mltest.LinearlySeparable(60, 0.2, 3)
	learner := ml.Learner{Name: "maj", New: func() ml.Classifier { return &majorityClassifier{} }}
	ba, err := ml.CrossValidate(learner, d, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A constant predictor has balanced accuracy 1/2 by construction.
	if ba < 0.45 || ba > 0.55 {
		t.Errorf("majority CV BA = %v, want ≈0.5", ba)
	}
}

func TestCrossValidateDeterministic(t *testing.T) {
	d := mltest.LinearlySeparable(40, 0.2, 3)
	learner := ml.Learner{Name: "maj", New: func() ml.Classifier { return &majorityClassifier{} }}
	a, err := ml.CrossValidate(learner, d, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ml.CrossValidate(learner, d, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("CV not deterministic: %v vs %v", a, b)
	}
}

func TestEvaluate(t *testing.T) {
	d := mltest.LinearlySeparable(20, 0.3, 5)
	m := &majorityClassifier{class: 1}
	conf := ml.Evaluate(m, d)
	if conf.TP+conf.FP != 20 {
		t.Errorf("all predictions should be positive: %+v", conf)
	}
}

func TestScaler(t *testing.T) {
	d := ml.NewDataset([]string{"a", "b"})
	if err := d.Add([]float64{0, 5}, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Add([]float64{10, 5}, 1); err != nil {
		t.Fatal(err)
	}
	s := ml.FitScaler(d)
	z := s.Apply([]float64{5, 5})
	if z[0] != 0 {
		t.Errorf("centered value = %v, want 0", z[0])
	}
	// Constant attribute: std floor of 1, so centered passthrough.
	if z[1] != 0 {
		t.Errorf("constant attribute scaled to %v, want 0", z[1])
	}
	all := s.ApplyAll(d)
	if len(all) != 2 {
		t.Fatalf("ApplyAll rows = %d", len(all))
	}
	if all[0][0] >= 0 || all[1][0] <= 0 {
		t.Errorf("standardized column wrong: %v, %v", all[0][0], all[1][0])
	}
}
