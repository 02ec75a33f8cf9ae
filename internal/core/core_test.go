package core_test

import (
	"errors"
	"math/rand"
	"testing"

	"hpcap/internal/core"
	"hpcap/internal/metrics"
	"hpcap/internal/ml/bayes"
	"hpcap/internal/predictor"
	"hpcap/internal/server"
)

// syntheticSets fabricates two training workloads with complementary
// bottlenecks: workload A overloads tier 0 (its vector[0] rises), workload
// B overloads tier 1.
func syntheticSets(n int, seed int64) ([]core.TrainingSet, []string) {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"m_load", "m_noise"}
	mk := func(workload string, hotTier server.TierID) core.TrainingSet {
		set := core.TrainingSet{Workload: workload}
		for i := 0; i < n; i++ {
			overload := 0
			// Alternate runs of healthy and overloaded windows.
			if (i/8)%2 == 1 {
				overload = 1
			}
			var vecs [server.NumTiers][]float64
			for tier := server.TierID(0); tier < server.NumTiers; tier++ {
				load := 0.2 + 0.1*rng.Float64()
				if overload == 1 && tier == hotTier {
					load = 0.8 + 0.1*rng.Float64()
				}
				vecs[tier] = []float64{load, rng.Float64()}
			}
			set.Windows = append(set.Windows, core.LabeledWindow{
				Observation: core.Observation{Time: float64(i * 30), Vectors: vecs},
				Overload:    overload,
				Bottleneck:  hotTier,
			})
		}
		return set
	}
	return []core.TrainingSet{mk("alpha", 0), mk("beta", 1)}, names
}

func TestTrainValidation(t *testing.T) {
	sets, names := syntheticSets(40, 1)
	if _, err := core.Train(metrics.LevelHPC, names, sets, core.Config{}); err == nil {
		t.Error("missing learner not rejected")
	}
	cfg := core.Config{Learner: bayes.NaiveLearner()}
	if _, err := core.Train(metrics.LevelHPC, names, nil, cfg); err == nil {
		t.Error("empty training sets not rejected")
	}
}

func TestTrainAndPredictEndToEnd(t *testing.T) {
	sets, names := syntheticSets(80, 2)
	m, err := core.Train(metrics.LevelHPC, names, sets, core.Config{
		Learner:  bayes.NaiveLearner(),
		Synopsis: core.DefaultSynopsisConfig(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Synopses) != 4 {
		t.Fatalf("synopses = %d, want 2 workloads × 2 tiers", len(m.Synopses))
	}
	if m.Level != metrics.LevelHPC {
		t.Errorf("level = %v", m.Level)
	}

	// Replay each training trace; accuracy on seen patterns must be high.
	sess := m.NewSession()
	for _, set := range sets {
		sess.ResetHistory()
		correct := 0
		for _, w := range set.Windows {
			p, err := sess.Predict(w.Observation)
			if err != nil {
				t.Fatal(err)
			}
			if p.Overload == (w.Overload == 1) {
				correct++
			}
			if p.Overload && w.Overload == 1 && p.Bottleneck != w.Bottleneck {
				t.Errorf("workload %s: bottleneck = %v, want %v", set.Workload, p.Bottleneck, w.Bottleneck)
			}
			if len(p.GPV) != 4 {
				t.Fatalf("GPV length %d", len(p.GPV))
			}
		}
		if frac := float64(correct) / float64(len(set.Windows)); frac < 0.85 {
			t.Errorf("workload %s replay accuracy = %.2f, want ≥0.85", set.Workload, frac)
		}
	}
}

func TestSynopsisByKey(t *testing.T) {
	sets, names := syntheticSets(40, 3)
	m, err := core.Train(metrics.LevelOS, names, sets, core.Config{
		Learner:  bayes.NaiveLearner(),
		Synopsis: core.DefaultSynopsisConfig(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := m.SynopsisByKey("alpha/app/OS/Naive"); s == nil {
		t.Error("expected synopsis alpha/app/OS/Naive")
	}
	if s := m.SynopsisByKey("nope/app/OS/Naive"); s != nil {
		t.Error("unexpected synopsis for bogus key")
	}
}

func TestMonitorFeedbackAdapts(t *testing.T) {
	sets, names := syntheticSets(80, 4)
	m, err := core.Train(metrics.LevelHPC, names, sets, core.Config{
		Learner:  bayes.NaiveLearner(),
		Synopsis: core.DefaultSynopsisConfig(1),
		// A wide uncertainty band: predictions start at the optimistic
		// default and must be steered out of the band by online feedback.
		Coordinator: predictor.Config{Delta: 32, CounterMax: 64},
		TrainPasses: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// An overloaded observation from workload alpha.
	var obs core.Observation
	obs.Vectors[0] = []float64{0.9, 0.5}
	obs.Vectors[1] = []float64{0.25, 0.5}

	sess := m.NewSession()
	sess.ResetHistory()
	p, err := sess.Predict(obs)
	if err != nil {
		t.Fatal(err)
	}
	if p.Overload {
		t.Fatal("uncertain optimistic monitor should start at underload")
	}
	for i := 0; i < 70; i++ {
		if _, err := sess.Predict(obs); err != nil {
			t.Fatal(err)
		}
		sess.Feedback(true, 0)
	}
	p, err = sess.Predict(obs)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Overload {
		t.Error("feedback did not flip the monitor's prediction")
	}
	if p.Bottleneck != 0 {
		t.Errorf("bottleneck after feedback = %v, want tier 0", p.Bottleneck)
	}
}

func TestTrainRejectsMismatchedVectors(t *testing.T) {
	sets, _ := syntheticSets(40, 5)
	// Names claim three attributes but vectors carry two.
	_, err := core.Train(metrics.LevelHPC, []string{"a", "b", "c"}, sets, core.Config{
		Learner: bayes.NaiveLearner(),
	})
	if err == nil {
		t.Error("mismatched vector width not rejected")
	}
}

func TestSentinelErrors(t *testing.T) {
	sets, names := syntheticSets(40, 6)

	// Training validation wraps ErrBadConfig.
	if _, err := core.Train(metrics.LevelHPC, names, sets, core.Config{}); !errors.Is(err, core.ErrBadConfig) {
		t.Errorf("missing learner: got %v, want ErrBadConfig", err)
	}
	cfg := core.Config{Learner: bayes.NaiveLearner()}
	if _, err := core.Train(metrics.LevelHPC, names, nil, cfg); !errors.Is(err, core.ErrBadConfig) {
		t.Errorf("empty training sets: got %v, want ErrBadConfig", err)
	}

	// An untrained (zero-value) monitor's sessions fail closed.
	var zero core.Monitor
	sess := zero.NewSession()
	if _, err := sess.Predict(core.Observation{}); !errors.Is(err, core.ErrUntrained) {
		t.Errorf("untrained session Predict: got %v, want ErrUntrained", err)
	}
	// Session mutators must be inert, not panic.
	sess.Feedback(true, 0)
	sess.ResetHistory()
	// The deprecated Compile alias fails the same way.
	if _, err := zero.Compile(); !errors.Is(err, core.ErrUntrained) {
		t.Errorf("untrained Compile: got %v, want ErrUntrained", err)
	}

	// A trained monitor rejects observations of the wrong width.
	m, err := core.Train(metrics.LevelHPC, names, sets, core.Config{
		Learner:  bayes.NaiveLearner(),
		Synopsis: core.DefaultSynopsisConfig(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.InputDim() != len(names) {
		t.Errorf("InputDim = %d, want %d", m.InputDim(), len(names))
	}
	var obs core.Observation
	obs.Vectors[0] = []float64{0.5} // trained on two metrics
	obs.Vectors[1] = []float64{0.5, 0.5}
	if _, err := m.NewSession().Predict(obs); !errors.Is(err, core.ErrDimensionMismatch) {
		t.Errorf("narrow vector: got %v, want ErrDimensionMismatch", err)
	}
}
