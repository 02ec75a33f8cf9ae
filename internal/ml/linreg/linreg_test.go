package linreg

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
		t.Errorf("training BA on separable data = %v, want ≥0.97", ba)
	}
}

func TestFailsOnXOR(t *testing.T) {
	// The paper: "Linear regression performed worst because it can only
	// capture linear correlations."
	d := mltest.XOR(200, 0.08, 2)
	ba, err := mltest.TrainAccuracy(New(), d)
	if err != nil {
		t.Fatal(err)
	}
	if ba > 0.65 {
		t.Errorf("LR on XOR achieved %v; a linear model should stay near 0.5", ba)
	}
}

func TestEmptyAndOneClassErrors(t *testing.T) {
	if err := New().Fit(ml.NewDataset([]string{"a"})); err != ml.ErrNoData {
		t.Errorf("empty fit err = %v, want ErrNoData", err)
	}
	if err := New().Fit(mltest.OneClass(10, 1)); err != ml.ErrOneClass {
		t.Errorf("one-class fit err = %v, want ErrOneClass", err)
	}
}

func TestPredictBeforeFit(t *testing.T) {
	if got := New().Predict([]float64{1, 2}, &ml.Scratch{}); got != 0 {
		t.Errorf("unfitted Predict = %d, want 0", got)
	}
}

func TestCollinearAttributesHandled(t *testing.T) {
	// Duplicate columns make XᵀX singular without ridge regularization.
	d := ml.NewDataset([]string{"a", "a_copy"})
	for i := 0; i < 50; i++ {
		v := float64(i)
		label := 0
		if i >= 25 {
			label = 1
		}
		if err := d.Add([]float64{v, v}, label); err != nil {
			t.Fatal(err)
		}
	}
	c := New()
	if err := c.Fit(d); err != nil {
		t.Fatalf("collinear fit failed: %v", err)
	}
	if ba := ml.Evaluate(c, d).BalancedAccuracy(); ba < 0.9 {
		t.Errorf("collinear BA = %v, want ≥0.9", ba)
	}
}

func TestScoreMonotoneAlongDiscriminant(t *testing.T) {
	d := mltest.LinearlySeparable(100, 0.3, 7)
	c := New()
	if err := c.Fit(d); err != nil {
		t.Fatal(err)
	}
	var s ml.Scratch
	lo := c.Score([]float64{-0.2, -0.2}, &s)
	hi := c.Score([]float64{1.5, 1.5}, &s)
	if hi <= lo {
		t.Errorf("score not increasing toward class 1: %v vs %v", lo, hi)
	}
}

func TestCrossValidationOnNoisyData(t *testing.T) {
	d := mltest.NoisyGaussians(200, 6, 2, 2.5, 11)
	ba, err := ml.CrossValidate(Learner(), d, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ba < 0.8 {
		t.Errorf("CV BA on informative Gaussians = %v, want ≥0.8", ba)
	}
}
