package synopsis

import (
	"testing"

	"hpcap/internal/metrics"
	"hpcap/internal/ml"
	"hpcap/internal/ml/bayes"
	"hpcap/internal/ml/mltest"
	"hpcap/internal/server"
)

func TestBuildAndPredict(t *testing.T) {
	d := mltest.NoisyGaussians(300, 10, 2, 3, 1)
	s, err := Build("ordering", server.TierApp, metrics.LevelHPC,
		bayes.TANLearner(), d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.CV < 0.85 {
		t.Errorf("CV = %v, want ≥0.85", s.CV)
	}
	if len(s.Attrs) == 0 || len(s.Attrs) != len(s.AttrNames) {
		t.Fatalf("attrs %v / names %v misaligned", s.Attrs, s.AttrNames)
	}
	// Predict takes the FULL vector and projects internally.
	correct := 0
	var scr ml.Scratch
	for i := 0; i < d.Len(); i++ {
		if s.Predict(d.Row(i), &scr) == d.Y[i] {
			correct++
		}
	}
	if frac := float64(correct) / float64(d.Len()); frac < 0.85 {
		t.Errorf("full-vector prediction accuracy = %v, want ≥0.85", frac)
	}
}

func TestBuildFailsOnOneClass(t *testing.T) {
	d := mltest.OneClass(40, 0)
	if _, err := Build("x", server.TierApp, metrics.LevelHPC,
		bayes.NaiveLearner(), d, 1); err == nil {
		t.Error("one-class training set not rejected")
	}
}

func TestKey(t *testing.T) {
	d := mltest.NoisyGaussians(120, 4, 2, 3, 3)
	s, err := Build("browsing", server.TierDB, metrics.LevelHPC,
		bayes.TANLearner(), d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Key() != "browsing/db/HPC/TAN" {
		t.Errorf("Key = %q", s.Key())
	}
}

func TestPredictToleratesShortVector(t *testing.T) {
	d := mltest.NoisyGaussians(150, 6, 2, 3, 5)
	s, err := Build("w", server.TierApp, metrics.LevelHPC,
		bayes.NaiveLearner(), d, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A truncated vector must not panic; missing attributes read as zero.
	_ = s.Predict([]float64{1, 2}, &ml.Scratch{})
}
