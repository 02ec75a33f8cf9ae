package core_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"hpcap/internal/core"
	"hpcap/internal/metrics"
	"hpcap/internal/ml"
	"hpcap/internal/ml/bayes"
	"hpcap/internal/ml/linreg"
	"hpcap/internal/ml/svm"
	"hpcap/internal/server"
)

// learners are the four synopsis builders every decision test covers.
var learners = []ml.Learner{
	bayes.NaiveLearner(),
	bayes.TANLearner(),
	svm.Learner(),
	linreg.Learner(),
}

// trainedMonitors lazily trains one monitor per learner (training is the
// expensive part; every test and fuzz iteration shares them).
var trainedMonitors = struct {
	once sync.Once
	m    map[string]*core.Monitor
}{}

func monitorFor(t testing.TB, learner ml.Learner) *core.Monitor {
	t.Helper()
	trainedMonitors.once.Do(func() {
		trainedMonitors.m = make(map[string]*core.Monitor)
		sets, names := syntheticSets(60, 11)
		for _, l := range learners {
			m, err := core.Train(metrics.LevelHPC, names, sets, core.Config{
				Learner:  l,
				Synopsis: core.DefaultSynopsisConfig(11),
			})
			if err != nil {
				panic(err)
			}
			trainedMonitors.m[l.Name] = m
		}
	})
	return trainedMonitors.m[learner.Name]
}

// randomObs draws one observation; values occasionally degenerate to the
// pathological floats the decision plane tolerates.
func randomObs(rng *rand.Rand, dim int) core.Observation {
	obs := core.Observation{Time: rng.Float64() * 1e4}
	for tier := server.TierID(0); tier < server.NumTiers; tier++ {
		v := make([]float64, dim)
		for k := range v {
			switch rng.Intn(12) {
			case 0:
				v[k] = math.NaN()
			case 1:
				v[k] = math.Inf(1 - 2*rng.Intn(2))
			case 2:
				v[k] = rng.NormFloat64() * 1e9
			default:
				v[k] = rng.NormFloat64()
			}
		}
		obs.Vectors[tier] = v
	}
	return obs
}

func predEqual(a, b core.Prediction) bool {
	if a.Overload != b.Overload || a.Bottleneck != b.Bottleneck || len(a.GPV) != len(b.GPV) {
		return false
	}
	for i := range a.GPV {
		if a.GPV[i] != b.GPV[i] {
			return false
		}
	}
	return true
}

// TestDecideAllMatchesSingle drives the batch path and a per-item
// reference over identical session pairs, including dimension-mismatch
// items, asserting predictions and error outcomes coincide.
func TestDecideAllMatchesSingle(t *testing.T) {
	m := monitorFor(t, bayes.TANLearner())
	const sites = 37
	rng := rand.New(rand.NewSource(5))
	batchSess := make([]*core.Session, sites)
	refSess := make([]*core.Session, sites)
	for i := range batchSess {
		batchSess[i] = m.NewSession()
		refSess[i] = m.NewSession()
	}
	obs := make([]core.Observation, sites)
	out := make([]core.Prediction, sites)
	ref := make([]core.Prediction, sites)
	var db core.DecideBatch
	for round := 0; round < 25; round++ {
		for i := range obs {
			dim := m.InputDim()
			if rng.Intn(10) == 0 {
				dim-- // invalid item inside the batch
			}
			obs[i] = randomObs(rng, dim)
		}
		m.DecideAll(&db, batchSess, obs, out)
		for i := range obs {
			rerr := refSess[i].PredictInto(obs[i], &ref[i])
			if (db.Err(i) == nil) != (rerr == nil) {
				t.Fatalf("round %d item %d: batch err %v, single err %v", round, i, db.Err(i), rerr)
			}
			if rerr != nil {
				continue
			}
			if !predEqual(out[i], ref[i]) {
				t.Fatalf("round %d item %d: batch %+v, single %+v", round, i, out[i], ref[i])
			}
		}
	}
}

// TestDecideAllGuards pins the batch misuse panics: mismatched slice
// lengths and sessions from a foreign monitor.
func TestDecideAllGuards(t *testing.T) {
	m := monitorFor(t, bayes.NaiveLearner())
	other := monitorFor(t, bayes.TANLearner())
	obs := []core.Observation{{}}
	out := make([]core.Prediction, 1)
	var db core.DecideBatch
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("length mismatch", func() {
		m.DecideAll(&db, nil, obs, out)
	})
	mustPanic("foreign session", func() {
		m.DecideAll(&db, []*core.Session{other.NewSession()}, obs, out)
	})
}
