package experiment

import (
	"context"
	"fmt"
	"sync"

	"hpcap/internal/core"
	"hpcap/internal/metrics"
	"hpcap/internal/ml"
	"hpcap/internal/parallel"
	"hpcap/internal/predictor"
	"hpcap/internal/server"
	"hpcap/internal/tpcw"
)

// Lab bundles the shared state of the evaluation: the testbed
// configuration, the measured workload knees, the generated traces, and
// the trained monitors, each computed once and cached so that the
// experiments reproducing different tables and figures share identical
// inputs (as they did on the paper's physical testbed).
//
// A Lab is safe for concurrent use: every cache entry is guarded by its
// own once-cell, so concurrent experiments that need the same workload,
// trace, or monitor share one deterministic computation instead of
// duplicating (or racing on) it. Because all randomness is derived from
// Seed per key, results are bit-identical whatever Workers is set to —
// the determinism golden tests enforce this.
type Lab struct {
	Server server.Config
	Scale  Scale
	// Seed separates trace randomness between training (Seed+k) and test
	// (Seed+100+k) runs.
	Seed int64
	// Workers bounds the fan-out of the experiment grids (Table I,
	// Figure 4, the ablation, overhead runs) and Prewarm; zero or
	// negative selects GOMAXPROCS. Workers = 1 reproduces the strictly
	// sequential run.
	Workers int
	// Topology is the site every generated trace simulates; nil means
	// server.TwoTierTopology(Server), the paper's two-tier testbed (see
	// TraceConfig.Topology).
	Topology *server.TopologyConfig

	mu        sync.Mutex
	workloads map[string]*cell[Workload]
	traces    map[string]*cell[*Trace]
	monitors  map[monitorKey]*cell[*core.Monitor]
}

// cell is a singleflight slot: the first caller computes, everyone else
// waits on the same result.
type cell[T any] struct {
	once sync.Once
	val  T
	err  error
}

// monitorKey identifies one trained coordinated monitor.
type monitorKey struct {
	level   metrics.Level
	cfg     predictor.Config
	learner string
}

// NewLab returns a Lab over the default testbed at the given scale.
func NewLab(scale Scale) *Lab {
	return &Lab{
		Server:    server.DefaultConfig(),
		Scale:     scale,
		Seed:      1,
		workloads: make(map[string]*cell[Workload]),
		traces:    make(map[string]*cell[*Trace]),
		monitors:  make(map[monitorKey]*cell[*core.Monitor]),
	}
}

// workers returns the effective fan-out bound.
func (l *Lab) workers() int { return parallel.Workers(l.Workers) }

// getCell returns the once-cell for key, creating it under the Lab mutex.
func getCell[K comparable, T any](l *Lab, m map[K]*cell[T], key K) *cell[T] {
	l.mu.Lock()
	defer l.mu.Unlock()
	c, ok := m[key]
	if !ok {
		c = new(cell[T])
		m[key] = c
	}
	return c
}

// TrainingMixes returns the representative mixes the paper trains on.
func TrainingMixes() []tpcw.Mix {
	return []tpcw.Mix{tpcw.Browsing(), tpcw.Ordering()}
}

// Workload measures (once) and returns the knees of a mix.
func (l *Lab) Workload(mix tpcw.Mix) (Workload, error) {
	c := getCell(l, l.workloads, mix.Name)
	c.once.Do(func() {
		c.val, c.err = DefineWorkload(l.Server, mix, l.Scale)
	})
	return c.val, c.err
}

// generate runs Generate with once-guarded caching under the given key.
func (l *Lab) generate(key string, sched tpcw.Schedule, seed int64, overheadOn bool) (*Trace, error) {
	c := getCell(l, l.traces, key)
	c.once.Do(func() {
		tr, err := Generate(TraceConfig{
			Server:          l.Server,
			Schedule:        sched,
			Window:          l.Scale.Window,
			Warmup:          l.Scale.WarmupWindows,
			Seed:            seed,
			CollectOverhead: overheadOn,
			Topology:        l.Topology,
		})
		if err != nil {
			c.err = fmt.Errorf("experiment: generate %s: %w", key, err)
			return
		}
		c.val = tr
	})
	return c.val, c.err
}

// monitor trains (once) and returns the coordinated monitor for
// (level, coordinator config, learner). Cached monitors are shared:
// concurrent Predict callers must use core.Monitor.NewSession, and online
// Feedback adaptation on a shared lab monitor leaks into later users of
// the same key — train privately via core.Train for that.
func (l *Lab) monitor(level metrics.Level, coordCfg predictor.Config, learner ml.Learner) (*core.Monitor, error) {
	c := getCell(l, l.monitors, monitorKey{level, coordCfg, learner.Name})
	c.once.Do(func() {
		c.val, c.err = l.trainMonitor(level, coordCfg, learner)
	})
	return c.val, c.err
}

// TrainingTrace returns the cached training trace (ramp-up + spikes +
// flash) for a mix.
func (l *Lab) TrainingTrace(mix tpcw.Mix) (*Trace, error) {
	w, err := l.Workload(mix)
	if err != nil {
		return nil, err
	}
	return l.generate("train/"+mix.Name, TrainingSchedule(w, l.Scale), l.Seed+int64(len(mix.Name)), false)
}

// TestKind names the paper's four test workloads (§IV.A).
type TestKind string

// The four test workloads of the evaluation.
const (
	TestBrowsing    TestKind = "browsing"
	TestOrdering    TestKind = "ordering"
	TestInterleaved TestKind = "interleaved"
	TestUnknown     TestKind = "unknown"
)

// String returns the workload's name as used in the paper's figures,
// completing the Stringer set alongside metrics.Level, predictor.Scheme,
// and server.TierID.
func (k TestKind) String() string { return string(k) }

// TestKinds returns the four test workloads in the paper's order.
func TestKinds() []TestKind {
	return []TestKind{TestOrdering, TestBrowsing, TestInterleaved, TestUnknown}
}

// TestTrace returns the cached test trace of one kind.
func (l *Lab) TestTrace(kind TestKind) (*Trace, error) {
	switch kind {
	case TestBrowsing, TestOrdering, TestUnknown:
		mix := tpcw.Browsing()
		if kind == TestOrdering {
			mix = tpcw.Ordering()
		}
		if kind == TestUnknown {
			mix = tpcw.Unknown()
		}
		w, err := l.Workload(mix)
		if err != nil {
			return nil, err
		}
		return l.generate("test/"+string(kind), TestSchedule(w, l.Scale), l.Seed+100+int64(len(kind)), false)
	case TestInterleaved:
		wb, err := l.Workload(tpcw.Browsing())
		if err != nil {
			return nil, err
		}
		wo, err := l.Workload(tpcw.Ordering())
		if err != nil {
			return nil, err
		}
		return l.generate("test/interleaved", InterleavedSchedule(wb, wo, l.Scale), l.Seed+104, false)
	default:
		return nil, fmt.Errorf("experiment: unknown test kind %q", kind)
	}
}

// Prewarm measures every workload knee and generates every training and
// test trace of the evaluation, fanning the independent generations out
// across Workers. It is the parallel equivalent of the lazy warm-up the
// sequential experiments perform implicitly, and it leaves the Lab's
// caches identical to a sequential run's.
func (l *Lab) Prewarm(ctx context.Context) error {
	// Knees first: every schedule is expressed relative to them.
	mixes := []tpcw.Mix{tpcw.Browsing(), tpcw.Ordering(), tpcw.Unknown()}
	err := parallel.ForEach(ctx, len(mixes), l.workers(), func(i int) error {
		_, err := l.Workload(mixes[i])
		return err
	})
	if err != nil {
		return err
	}
	// Then every trace, each seed-isolated and independent.
	var tasks []func() error
	for _, mix := range TrainingMixes() {
		mix := mix
		tasks = append(tasks, func() error {
			_, err := l.TrainingTrace(mix)
			return err
		})
	}
	for _, kind := range TestKinds() {
		kind := kind
		tasks = append(tasks, func() error {
			_, err := l.TestTrace(kind)
			return err
		})
	}
	return parallel.ForEach(ctx, len(tasks), l.workers(), func(i int) error {
		return tasks[i]()
	})
}
