package core_test

import (
	"testing"

	"hpcap/internal/core"
	"hpcap/internal/metrics"
	"hpcap/internal/ml/bayes"
)

// benchMonitor trains one TAN monitor (the paper's recommended learner)
// over the synthetic workloads and returns it with a stream of observations
// drawn from the training traces.
func benchMonitor(b *testing.B) (*core.Monitor, []core.Observation) {
	b.Helper()
	sets, names := syntheticSets(80, 7)
	m, err := core.Train(metrics.LevelHPC, names, sets, core.Config{
		Learner: bayes.TANLearner(),
		Seed:    7,
	})
	if err != nil {
		b.Fatal(err)
	}
	var obs []core.Observation
	for _, set := range sets {
		for _, w := range set.Windows {
			obs = append(obs, w.Observation)
		}
	}
	return m, obs
}

// BenchmarkDecide measures one steady-state per-window decision on a
// single site: synopsis evaluation over every (workload × tier) scoring
// table, GPV packing, and the lock-free coordinated lookup — zero
// allocations per decision.
func BenchmarkDecide(b *testing.B) {
	m, obs := benchMonitor(b)
	sess := m.NewSession()
	var pred core.Prediction
	if err := sess.PredictInto(obs[0], &pred); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sess.PredictInto(obs[i%len(obs)], &pred); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecideBatch measures the amortized per-decision cost of
// deciding a whole 1000-site shard's due list in one DecideAll pass;
// ns/op is per decision, not per batch.
func BenchmarkDecideBatch(b *testing.B) {
	const sites = 1000
	m, obs := benchMonitor(b)
	sess := make([]*core.Session, sites)
	batch := make([]core.Observation, sites)
	out := make([]core.Prediction, sites)
	var db core.DecideBatch
	for i := range sess {
		sess[i] = m.NewSession()
		batch[i] = obs[i%len(obs)]
	}
	m.DecideAll(&db, sess, batch, out)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := sites
		if rest := b.N - done; rest < n {
			n = rest
		}
		m.DecideAll(&db, sess[:n], batch[:n], out[:n])
		done += n
	}
}
