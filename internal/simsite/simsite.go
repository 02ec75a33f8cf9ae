// Package simsite builds simulated monitored websites: a testbed under a
// rotated burst schedule plus the per-tier collectors that sample it.
// Both ends of the distributed deployment share it — cmd/capserved
// simulates its fleet in-process, cmd/capagent runs the same sites at
// the edge and ships their samples over the wire — so a site generated
// by either binary from the same (config, index, seed) is byte-identical.
package simsite

import (
	"errors"

	"hpcap/internal/chunk"
	"hpcap/internal/experiment"
	"hpcap/internal/metrics"
	"hpcap/internal/server"
	"hpcap/internal/tpcw"
)

// Testbed is the simulation surface a site exposes: the two-slot view
// (*server.Testbed) of whatever topology the site simulates.
type Testbed interface {
	Start() error
	RunInterval(dt float64) server.Snapshot
	SetAdmission(f server.AdmissionFunc)
	Conservation() (arrivals, completions, rejections, inFlight int)
}

// Site is one simulated monitored website.
type Site struct {
	Name string
	TB   Testbed
	// DAG is the tier-DAG testbed behind TB when the site was built by
	// NewDAG — the actuator surface an autoscaler grows and shrinks.
	// Sites built by New leave it nil.
	DAG  *server.DAGTestbed
	coll [server.NumTiers][]metrics.Collector
	vecs chunk.Of[float64] // Collect's vectors
}

// Collect concatenates the site's tier collectors into one sample vector
// (one collector at the OS or HPC level; both, OS first, at the combined
// level — the layout experiment.MetricNames names), fresh on every read:
// the collectors write into one vector carved from the site's chunk (see
// package chunk), each into its own span.
func (s *Site) Collect(tier server.TierID, snap server.Snapshot) []float64 {
	cs := s.coll[tier]
	n := 0
	for _, c := range cs {
		n += len(c.Names())
	}
	v := s.vecs.Carve(n)
	off := 0
	for _, c := range cs {
		end := off + len(c.Names())
		span := v[off:end:end]
		copy(span, c.CollectTo(span, snap, 1))
		off = end
	}
	return v
}

// WrapCollectors replaces every tier collector c with wrap(c) — the
// hook cmd/capagent uses to harden its sources with chaos-injectable
// failure (chaos.FlakyCollector) and bounded retry
// (metrics.NewRetryCollector) without simsite depending on either.
func (s *Site) WrapCollectors(wrap func(metrics.Collector) metrics.Collector) {
	for tier := range s.coll {
		for i, c := range s.coll[tier] {
			s.coll[tier][i] = wrap(c)
		}
	}
}

// rotatedSchedule builds one site's burst schedule: cruise below the
// knee, burst past it, recover, with the cruise length rotated by index
// so the fleet does not overload in lockstep.
func rotatedSchedule(w experiment.Workload, index int, duration float64) tpcw.Schedule {
	ebs := func(f float64) int {
		n := int(float64(w.Knee)*f + 0.5)
		if n < 1 {
			n = 1
		}
		return n
	}
	cruise := 120.0 + 30.0*float64(index%4)
	cycle := tpcw.Concat(
		tpcw.Steady(w.Mix, ebs(0.70), cruise),
		tpcw.Steady(w.Mix, ebs(1.45), 120),
		tpcw.Steady(w.Mix, ebs(0.55), 60),
	)
	sched := cycle
	for sched.Duration() < duration {
		sched = tpcw.Concat(sched, cycle)
	}
	return sched
}

// New builds one monitored site on the paper's two-tier testbed. Sites
// alternate between the browsing and ordering mixes and rotate their burst
// phase so the fleet does not overload in lockstep; each has its own seed,
// a pure function of the master seed and the site's index.
func New(name string, base server.Config, level metrics.Level, index int, wb, wo experiment.Workload, seed int64, duration float64) (*Site, error) {
	if errs := base.Validate(); len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	s, err := NewDAG(name, server.TwoTierTopology(base), level, index, wb, wo, seed, duration)
	if err != nil {
		return nil, err
	}
	// The two-tier site has nothing to scale: no actuator surface.
	s.DAG = nil
	return s, nil
}

// NewDAG builds one monitored site on an arbitrary tier DAG: the same
// rotated burst schedule and collector seeding as New, but requests flow
// through topo's replica pools and the site exposes the DAG handle for
// autoscaling.
func NewDAG(name string, topo server.TopologyConfig, level metrics.Level, index int, wb, wo experiment.Workload, seed int64, duration float64) (*Site, error) {
	w := wb
	if index%2 == 1 {
		w = wo
	}
	topo.Seed = seed + 1000*int64(index+1)
	dag, err := server.NewDAGTestbed(topo, rotatedSchedule(w, index, duration))
	if err != nil {
		return nil, err
	}
	s := &Site{Name: name, TB: dag.TwoSlot(), DAG: dag}
	osColl, hpcColl := experiment.Collectors(topo.SlotMachines(server.Config{}), topo.Seed)
	for tier := range s.coll {
		switch level {
		case metrics.LevelOS:
			s.coll[tier] = []metrics.Collector{osColl[tier]}
		case metrics.LevelHPC:
			s.coll[tier] = []metrics.Collector{hpcColl[tier]}
		default: // combined: OS first, matching experiment.Trace layout
			s.coll[tier] = []metrics.Collector{osColl[tier], hpcColl[tier]}
		}
	}
	return s, nil
}
