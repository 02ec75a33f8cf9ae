package registry

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hpcap/internal/core"
	"hpcap/internal/serve"
	"hpcap/internal/server"
)

// Scaler is the control surface the autoscaler drives: add or remove one
// replica of a named pool at a site. A single-site deployment binds a
// server.DAGTestbed (whose AddReplica/RemoveReplica take only the pool)
// behind a one-line adapter; a fleet routes on the site. Both methods
// report the pool's active replica count and whether anything changed (a
// pool at its bound refuses).
type Scaler interface {
	AddReplica(site, pool string) (int, bool)
	RemoveReplica(site, pool string) (int, bool)
}

// ScaleEvent is one autoscaling action, emitted via AutoscalerConfig's
// OnScale — always outside the autoscaler's locks, like every callback
// in the serving stack.
type ScaleEvent struct {
	Site string
	Seq  int64 // the decision window that triggered the action
	Pool string
	Up   bool
	// Replicas is the pool's active count after the action; Ratio the
	// offered-load/capacity ratio that triggered it.
	Replicas int
	Ratio    float64
}

// String renders the event in a stable, golden-friendly layout.
func (e ScaleEvent) String() string {
	dir := "down"
	if e.Up {
		dir = "up"
	}
	return fmt.Sprintf("scale site=%s seq=%d pool=%s dir=%s replicas=%d ratio=%.3f",
		e.Site, e.Seq, e.Pool, dir, e.Replicas, e.Ratio)
}

// The autoscaler's thresholds. The admission valve sheds load the moment
// an overload verdict lands, so consecutive overload windows rarely happen:
// one verdict arms a scale-up. Scaling down waits for downWindows
// consecutive healthy verdicts — the classic asymmetric thermostat — and
// every action is followed by cooldownWindows quiet windows, letting the
// new capacity show up in the counters before the next verdict counts.
// The ratio gates bound the candidate pool's window-averaged
// offered-load/capacity ratio: at least upRatio for a scale-up (overload
// with every pool comfortably under capacity points at a non-capacity
// cause, e.g. a fault storm), at most downRatio for a scale-down. Both sit
// well below 1 because queue-bound overload leaves the bottleneck's CPU
// far from saturated even as response times explode.
const (
	downWindows     = 4
	cooldownWindows = 2
	upRatio         = 0.3
	downRatio       = 0.15
)

// AutoscalerConfig wires an Autoscaler.
type AutoscalerConfig struct {
	// Scaler is the replica control surface. Required.
	Scaler Scaler
	// OnScale, when set, receives every completed action. Called outside
	// all autoscaler locks.
	OnScale func(ScaleEvent)
}

// Validate returns one error per violated constraint, each wrapping
// core.ErrBadConfig.
func (c AutoscalerConfig) Validate() []error {
	if c.Scaler == nil {
		return []error{fmt.Errorf("registry: autoscaler: %w: nil scaler", core.ErrBadConfig)}
	}
	return nil
}

// scaled is the autoscaling state of one site.
type scaled struct {
	mu         sync.Mutex
	healthy    int // consecutive healthy verdicts
	cooldownAt int64
	acting     bool // an action is in flight outside the lock
}

// scaleStripe is one lock's worth of the autoscaler's site table.
type scaleStripe struct {
	mu    sync.Mutex
	sites map[string]*scaled
}

// Autoscaler closes the capacity loop: it watches the pipeline's
// overload verdicts alongside the testbed's per-pool load ratios and
// adds replicas to the bottleneck pool (or drains the idlest) through a
// Scaler — the scale-out counterpart of the AdmissionValve, which can
// only shed load. Striped like the lifecycle manager, so sites on
// different stripes never contend.
type Autoscaler struct {
	cfg     AutoscalerConfig
	stripes [lifecycleStripes]scaleStripe
	ups     atomic.Uint64
	downs   atomic.Uint64
}

// NewAutoscaler validates the configuration and returns an autoscaler.
// Wire it up by calling Observe with each decision and the current pool
// loads (server.DAGTestbed.PoolLoads).
func NewAutoscaler(cfg AutoscalerConfig) (*Autoscaler, error) {
	if errs := cfg.Validate(); len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	a := &Autoscaler{cfg: cfg}
	for i := range a.stripes {
		a.stripes[i].sites = make(map[string]*scaled)
	}
	return a, nil
}

// ensure returns the site's scaling state, creating it on first use.
func (a *Autoscaler) ensure(site string) *scaled {
	sp := &a.stripes[serve.SiteShard(site, lifecycleStripes)]
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if st, ok := sp.sites[site]; ok {
		return st
	}
	st := &scaled{}
	sp.sites[site] = st
	return st
}

// Actions returns the lifetime scale-up and scale-down counts.
func (a *Autoscaler) Actions() (ups, downs uint64) {
	return a.ups.Load(), a.downs.Load()
}

// Observe feeds one decision window and the pool loads measured over it.
// It returns the action taken, if any. Degraded and low-confidence
// windows are ignored outright — scaling real machines on corrupted
// telemetry is how fault storms turn into capacity incidents — and they
// do not advance the healthy streak.
func (a *Autoscaler) Observe(d serve.Decision, loads []server.PoolLoad) *ScaleEvent {
	if d.Degraded || d.LowConfidence || len(loads) == 0 {
		return nil
	}
	st := a.ensure(d.Site)

	st.mu.Lock()
	// Windows inside the cooldown (or while an action is in flight) are
	// discarded outright — they reflect the old capacity, so letting them
	// accumulate a streak would double-fire on one episode.
	if st.acting || d.Seq < st.cooldownAt {
		st.mu.Unlock()
		return nil
	}
	up := d.Prediction.Overload
	if up {
		st.healthy = 0
	} else {
		st.healthy++
	}
	var target int
	switch {
	case up:
		target = server.BottleneckPool(loads)
		if target < 0 || loads[target].Ratio() < upRatio {
			st.mu.Unlock()
			return nil
		}
	case st.healthy >= downWindows:
		target = idlestPool(loads)
		if target < 0 || loads[target].Ratio() > downRatio {
			st.mu.Unlock()
			return nil
		}
	default:
		st.mu.Unlock()
		return nil
	}
	// Perform the action outside the lock: a Scaler may be slow, and its
	// callbacks (or OnScale) may re-enter the autoscaler.
	st.acting = true
	st.mu.Unlock()

	pool := loads[target].Pool
	var replicas int
	var ok bool
	if up {
		replicas, ok = a.cfg.Scaler.AddReplica(d.Site, pool)
	} else {
		replicas, ok = a.cfg.Scaler.RemoveReplica(d.Site, pool)
	}

	st.mu.Lock()
	st.acting = false
	if ok {
		st.cooldownAt = d.Seq + cooldownWindows
		st.healthy = 0
	}
	st.mu.Unlock()

	if !ok {
		return nil
	}
	if up {
		a.ups.Add(1)
	} else {
		a.downs.Add(1)
	}
	ev := &ScaleEvent{
		Site: d.Site, Seq: d.Seq, Pool: pool, Up: up,
		Replicas: replicas, Ratio: loads[target].Ratio(),
	}
	if a.cfg.OnScale != nil {
		a.cfg.OnScale(*ev)
	}
	return ev
}

// idlestPool returns the index of the pool with the lowest
// offered-load/capacity ratio that still has a replica to give (more
// than one active), or -1 when no pool qualifies.
func idlestPool(loads []server.PoolLoad) int {
	best := -1
	var bestRatio float64
	for i, l := range loads {
		if l.Replicas <= 1 {
			continue
		}
		r := l.Ratio()
		if best < 0 || r < bestRatio {
			best, bestRatio = i, r
		}
	}
	return best
}
