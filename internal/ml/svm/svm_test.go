package svm

import (
	"testing"

	"hpcap/internal/ml"
	"hpcap/internal/ml/mltest"
)

func TestLearnsLinearlySeparable(t *testing.T) {
	d := mltest.LinearlySeparable(200, 0.3, 1)
	ba, err := mltest.TrainAccuracy(New(), d)
	if err != nil {
		t.Fatal(err)
	}
	if ba < 0.97 {
		t.Errorf("SVM BA on separable data = %v, want ≥0.97", ba)
	}
}

func TestLearnsXOR(t *testing.T) {
	// The RBF kernel must capture the nonlinearity that defeats linear
	// regression.
	d := mltest.XOR(300, 0.08, 2)
	ba, err := mltest.TrainAccuracy(New(), d)
	if err != nil {
		t.Fatal(err)
	}
	if ba < 0.95 {
		t.Errorf("SVM BA on XOR = %v, want ≥0.95", ba)
	}
}

func TestErrorsOnDegenerateSets(t *testing.T) {
	if err := New().Fit(ml.NewDataset([]string{"a"})); err != ml.ErrNoData {
		t.Errorf("empty fit err = %v, want ErrNoData", err)
	}
	if err := New().Fit(mltest.OneClass(10, 1)); err != ml.ErrOneClass {
		t.Errorf("one-class fit err = %v, want ErrOneClass", err)
	}
}

func TestPredictBeforeFit(t *testing.T) {
	if got := New().Predict([]float64{1, 2}, &ml.Scratch{}); got != 1 {
		// Decision(â‰¥0 → 1); unfitted decision is 0, so 1. Just pin the
		// behaviour so it cannot change silently.
		t.Errorf("unfitted Predict = %d, want 1", got)
	}
}

func TestAlphaBoxConstraint(t *testing.T) {
	// SMO invariant: 0 ≤ α ≤ C for every support vector.
	d := mltest.NoisyGaussians(150, 4, 2, 1.5, 3)
	c := New()
	if err := c.Fit(d); err != nil {
		t.Fatal(err)
	}
	cost := c.EffectiveC()
	for i, a := range c.Alphas() {
		if a < -1e-9 || a > cost+1e-9 {
			t.Fatalf("alpha[%d] = %v violates [0, %v]", i, a, cost)
		}
	}
	if c.NumSupportVectors() == 0 {
		t.Error("no support vectors retained")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	d := mltest.NoisyGaussians(120, 4, 2, 2, 5)
	a := &Classifier{Seed: 7}
	b := &Classifier{Seed: 7}
	if err := a.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(d); err != nil {
		t.Fatal(err)
	}
	var s ml.Scratch
	for i := 0; i < d.Len(); i++ {
		row := d.Row(i)
		if a.Decision(row, &s) != b.Decision(row, &s) {
			t.Fatal("same seed produced different models")
		}
	}
}

func TestSoftMarginToleratesNoise(t *testing.T) {
	d := mltest.NoisyGaussians(300, 6, 2, 2.5, 9)
	ba, err := mltest.CrossValidate(Learner(), d, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ba < 0.8 {
		t.Errorf("SVM CV BA = %v, want ≥0.8", ba)
	}
}

func TestCustomHyperparameters(t *testing.T) {
	d := mltest.LinearlySeparable(100, 0.3, 11)
	c := &Classifier{C: 10, Gamma: 0.5, Tol: 1e-4, MaxPasses: 5}
	if err := c.Fit(d); err != nil {
		t.Fatal(err)
	}
	if ba := mltest.Evaluate(c, d).BalancedAccuracy(); ba < 0.95 {
		t.Errorf("custom-hyperparameter BA = %v, want ≥0.95", ba)
	}
}
