package core_test

import (
	"sync"
	"testing"

	"hpcap/internal/core"
	"hpcap/internal/metrics"
	"hpcap/internal/ml/bayes"
)

// trainedMonitor builds a small deterministic monitor plus the replay
// windows the stress tests hammer it with.
func trainedMonitor(t *testing.T) (*core.Monitor, []core.LabeledWindow) {
	t.Helper()
	sets, names := syntheticSets(80, 2)
	m, err := core.Train(metrics.LevelHPC, names, sets, core.Config{
		Learner: bayes.NaiveLearner(),
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, sets[0].Windows
}

// TestSessionsMatchSequentialReplay locks in the session contract: many
// concurrent sessions replaying the same trace over one shared monitor all
// see exactly the sequence a single-stream ResetHistory+Predict replay
// produces.
func TestSessionsMatchSequentialReplay(t *testing.T) {
	m, windows := trainedMonitor(t)

	seq := m.NewSession()
	seq.ResetHistory()
	want := make([]core.Prediction, len(windows))
	for i, w := range windows {
		p, err := seq.Predict(w.Observation)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := m.NewSession()
			for i, w := range windows {
				p, err := sess.Predict(w.Observation)
				if err != nil {
					errs <- err
					return
				}
				if p.Overload != want[i].Overload || p.Bottleneck != want[i].Bottleneck {
					t.Errorf("window %d: session prediction %+v, sequential %+v", i, p, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentSessionsIndependentHistories interleaves sessions at
// different replay offsets: each stream's h-bit history must stay its own.
func TestConcurrentSessionsIndependentHistories(t *testing.T) {
	m, windows := trainedMonitor(t)

	sess := m.NewSession()
	want := make([]core.Prediction, len(windows))
	for i, w := range windows {
		p, err := sess.Predict(w.Observation)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := m.NewSession()
			// Stagger the start; a fresh session always replays from the
			// cleared-history state, whatever the other streams are doing.
			for rep := 0; rep <= g%3; rep++ {
				s.ResetHistory()
				for i, w := range windows {
					p, err := s.Predict(w.Observation)
					if err != nil {
						t.Error(err)
						return
					}
					if p.Overload != want[i].Overload {
						t.Errorf("goroutine %d window %d: overload %v, want %v", g, i, p.Overload, want[i].Overload)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestCompatAPIUnderConcurrency hammers one shared Monitor from many
// goroutines at once: sessions predicting with online feedback, alongside
// direct readers of the predictor tables and the synopsis index. Feedback
// makes the predicted values scheduling-dependent, but under -race this
// locks in that the shared state is data-race-free, including Feedback's
// writes to the shared tables while sessions read them.
func TestCompatAPIUnderConcurrency(t *testing.T) {
	m, windows := trainedMonitor(t)

	const goroutines = 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch g % 2 {
			case 0: // session callers with online feedback
				s := m.NewSession()
				for _, w := range windows {
					p, err := s.Predict(w.Observation)
					if err != nil {
						t.Error(err)
						return
					}
					_ = p
					s.Feedback(w.Overload == 1, w.Bottleneck)
				}
			default: // table readers
				gpv := make([]int, len(m.Synopses))
				for i := 0; i < len(windows); i++ {
					if _, _, err := m.Coordinator().NewSession().Predict(gpv); err != nil {
						t.Error(err)
						return
					}
					_ = m.Synopses[i%len(m.Synopses)].Key()
				}
			}
		}()
	}
	wg.Wait()

	// The monitor must still predict sanely after the stampede.
	s := m.NewSession()
	for _, w := range windows {
		if _, err := s.Predict(w.Observation); err != nil {
			t.Fatal(err)
		}
	}
}
