package experiment

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"hpcap/internal/core"
	"hpcap/internal/metrics"
	"hpcap/internal/predictor"
	"hpcap/internal/tpcw"
)

// stressScale is a deliberately tiny trace scale: the stress tests care
// about cache contention, not statistical quality, and must stay cheap
// under -race.
func stressScale() Scale {
	return Scale{
		Name:             "stress",
		StepSec:          30,
		Window:           30,
		WarmupWindows:    1,
		InterleavePhases: 4,
		KneeLo:           40,
		KneeHi:           1400,
	}
}

// TestLabConcurrentCacheStampede hammers one fresh Lab from many goroutines
// that all demand the same workloads, traces, and monitors at once. Before
// the once-cell caches, this was a data race on the Lab's plain maps and a
// source of duplicated computation; now every goroutine must observe the
// exact same cached pointers.
func TestLabConcurrentCacheStampede(t *testing.T) {
	l := NewLab(stressScale())
	l.Workers = 8

	const goroutines = 16
	type got struct {
		train, test *Trace
		knee        int
	}
	results := make([]got, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := l.Workload(tpcw.Ordering())
			if err != nil {
				t.Error(err)
				return
			}
			train, err := l.TrainingTrace(tpcw.Ordering())
			if err != nil {
				t.Error(err)
				return
			}
			test, err := l.TestTrace(TestInterleaved)
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = got{train: train, test: test, knee: w.Knee}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.Fatalf("stampede errored")
	}
	for g := 1; g < goroutines; g++ {
		if results[g].train != results[0].train {
			t.Errorf("goroutine %d got a different cached training trace pointer", g)
		}
		if results[g].test != results[0].test {
			t.Errorf("goroutine %d got a different cached test trace pointer", g)
		}
		if results[g].knee != results[0].knee {
			t.Errorf("goroutine %d: knee %d, want %d", g, results[g].knee, results[0].knee)
		}
	}
}

// TestLabConcurrentMonitorSharing checks the monitor cache under the same
// stampede: all goroutines asking for the same (level, config, learner) get
// one shared trained monitor, trained exactly once.
func TestLabConcurrentMonitorSharing(t *testing.T) {
	l := NewLab(stressScale())
	l.Workers = 8
	cfg := predictor.Config{HistoryBits: 3, Delta: 5, Scheme: predictor.Optimistic}

	const goroutines = 8
	monitors := make([]interface{}, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := l.TrainMonitor(metrics.LevelHPC, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			monitors[g] = m
			// Exercise the shared monitor concurrently while others are
			// still fetching it.
			test, err := l.TestTrace(TestOrdering)
			if err != nil {
				t.Error(err)
				return
			}
			if _, _, err := EvaluateMonitor(m, test); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("monitor stampede errored")
	}
	for g := 1; g < goroutines; g++ {
		if monitors[g] != monitors[0] {
			t.Errorf("goroutine %d got a different monitor instance", g)
		}
	}
}

// TestPrewarmConcurrentWithExperiments overlaps two Prewarms with direct
// trace fetches racing them for the same cache cells.
func TestPrewarmConcurrentWithExperiments(t *testing.T) {
	l := NewLab(stressScale())
	l.Workers = 8

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := l.Prewarm(context.Background()); err != nil {
				t.Error(err)
			}
		}()
	}
	for _, kind := range TestKinds() {
		kind := kind
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := l.TestTrace(kind); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestTrainMonitorWorkersIdentical trains a monitor on two fresh labs —
// no Prewarm, so trainMonitor itself generates the two mixes' training
// traces, strictly one after the other at Workers 1 and side by side at
// Workers 8 — and replays the same test trace through both: every
// prediction, down to the synopses' votes, must be identical.
func TestTrainMonitorWorkersIdentical(t *testing.T) {
	cfg := predictor.Config{HistoryBits: 3, Delta: 5, Scheme: predictor.Optimistic}
	transcript := func(workers int) string {
		l := NewLab(stressScale())
		l.Workers = workers
		m, err := l.TrainMonitor(metrics.LevelCombined, cfg)
		if err != nil {
			t.Fatal(err)
		}
		test, err := l.TestTrace(TestInterleaved)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		sess := m.NewSession()
		for _, w := range test.Windows {
			p, err := sess.Predict(core.Observation{Time: w.Time, Vectors: w.Vectors(m.Level)})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%g %+v\n", w.Time, p)
		}
		return b.String()
	}
	seq, par := transcript(1), transcript(8)
	if seq == "" {
		t.Fatal("empty test trace")
	}
	if seq != par {
		t.Errorf("Workers=8 predictions diverged from Workers=1\n--- 1 ---\n%s--- 8 ---\n%s", seq, par)
	}
}
