package server

import (
	"fmt"
	"math"
)

// PoolKind classifies a replica pool's role in the request path.
type PoolKind int

// The pool roles of a tier DAG.
const (
	// PoolFront is a request-entry pool (the replicated application
	// tier behind the load balancer): its workers are held across every
	// downstream call, like the two-tier site's servlet threads.
	PoolFront PoolKind = iota + 1
	// PoolCache is a look-aside cache pool: each visit is served locally
	// with probability HitRatio; only misses descend into the pool's
	// downstream tiers.
	PoolCache
	// PoolStore is a backing-store pool (database shards): one burst per
	// worker hold, the two-tier site's database connection pattern.
	PoolStore
)

// String returns the kind's topology-text spelling.
func (k PoolKind) String() string {
	switch k {
	case PoolFront:
		return "front"
	case PoolCache:
		return "cache"
	case PoolStore:
		return "store"
	default:
		return fmt.Sprintf("PoolKind(%d)", int(k))
	}
}

// PoolConfig describes one replica pool of a tier DAG: Replicas identical
// machines behind a round-robin balancer, each running the pool's
// TierConfig.
type PoolConfig struct {
	Name string
	Kind PoolKind
	// Slot is the monitor tier slot this pool's counters feed. The
	// metric collectors, synopses, and serving pipeline all see the
	// fixed two-slot layout of the paper's testbed; a DAG folds each
	// pool's replica-mean counters into its slot (front pools naturally
	// map to TierApp, cache and store pools to TierDB).
	Slot TierID
	// Replicas is the pool's initial replica count.
	Replicas int
	// MinReplicas/MaxReplicas bound autoscaling. Zero values pin the
	// pool at Replicas (no scaling).
	MinReplicas int
	MaxReplicas int
	// Tier is the per-replica machine and software configuration.
	Tier TierConfig
	// DemandFrac scales the profile demand executed here: front pools
	// execute DemandFrac of the interaction's app demand, cache and
	// store pools DemandFrac of its DB demand. 1 is the two-tier site.
	DemandFrac float64
	// WorkFrac scales the profile working set the pool's workers touch.
	WorkFrac float64
	// HitRatio is the cache hit probability (cache pools only).
	HitRatio float64
	// Downstream names the pools this pool calls, in order, one network
	// hop away. A cache pool's downstream is consulted only on a miss.
	Downstream []string
}

// TopologyConfig defines an arbitrary tier DAG: named replica pools wired
// by Downstream edges, with requests entering at Entry (the implicit load
// balancer, which round-robins across the entry pool's replicas).
type TopologyConfig struct {
	Pools []PoolConfig
	// Entry names the pool requests enter at; it must be a front pool.
	Entry string
	// NetworkHop is the mean one-way latency between pools in seconds.
	NetworkHop float64
	// Seed drives all randomness in the DAG testbed.
	Seed int64
}

// TwoTierTopology expresses a two-tier Config as the degenerate DAG — one
// front pool and one store pool of one replica each, no cache. It is what
// NewTestbed simulates.
func TwoTierTopology(cfg Config) TopologyConfig {
	return TopologyConfig{
		Pools: []PoolConfig{
			{
				Name: "app", Kind: PoolFront, Slot: TierApp,
				Replicas: 1, Tier: cfg.App,
				DemandFrac: 1, WorkFrac: 1,
				Downstream: []string{"db"},
			},
			{
				Name: "db", Kind: PoolStore, Slot: TierDB,
				Replicas: 1, Tier: cfg.DB,
				DemandFrac: 1, WorkFrac: 1,
			},
		},
		Entry:      "app",
		NetworkHop: cfg.NetworkHop,
		Seed:       cfg.Seed,
	}
}

// SlotMachines returns the machine model behind each monitor tier slot —
// the one that slot's collectors are calibrated to: the first pool declared
// on the slot, or fallback's machine for a slot no pool occupies.
func (tc TopologyConfig) SlotMachines(fallback Config) [NumTiers]MachineConfig {
	m := [NumTiers]MachineConfig{fallback.App.Machine, fallback.DB.Machine}
	for i := len(tc.Pools) - 1; i >= 0; i-- {
		if pc := tc.Pools[i]; pc.Slot >= 0 && pc.Slot < NumTiers {
			m[pc.Slot] = pc.Tier.Machine
		}
	}
	return m
}

// DefaultTopologyConfig returns the calibrated four-pool reference DAG:
// load balancer → replicated app pool → look-aside cache → sharded store,
// built from the two-tier machine calibrations. The app pool starts at two
// replicas and may scale between one and six; the cache absorbs seven of
// ten store visits.
func DefaultTopologyConfig() TopologyConfig {
	base := DefaultConfig()
	cacheTier := base.DB
	// A cache replica is a memory server: fast, shallow queries, a far
	// bigger working-set budget before thrash, and no lock convoys.
	cacheTier.MaxWorkers = 64
	cacheTier.ThrashMB = 900
	cacheTier.MissPenalty = 2.0
	cacheTier.LockBlockFrac = 0
	cacheTier.BackgroundRate = 0.1
	cacheTier.BackgroundBankSec = 5
	return TopologyConfig{
		Pools: []PoolConfig{
			{
				Name: "app", Kind: PoolFront, Slot: TierApp,
				Replicas: 2, MinReplicas: 1, MaxReplicas: 6,
				Tier: base.App, DemandFrac: 1, WorkFrac: 1,
				Downstream: []string{"cache"},
			},
			{
				Name: "cache", Kind: PoolCache, Slot: TierDB,
				Replicas: 1, MinReplicas: 1, MaxReplicas: 2,
				Tier: cacheTier, DemandFrac: 0.15, WorkFrac: 0.3,
				HitRatio:   0.7,
				Downstream: []string{"db"},
			},
			{
				Name: "db", Kind: PoolStore, Slot: TierDB,
				Replicas: 2, MinReplicas: 1, MaxReplicas: 4,
				Tier: base.DB, DemandFrac: 1, WorkFrac: 1,
			},
		},
		Entry:      "app",
		NetworkHop: base.NetworkHop,
		Seed:       base.Seed,
	}
}

// Validate returns one error per violated constraint; it never panics,
// whatever the configuration holds (the topology fuzz test pins this).
// Like Config.Validate, the errors carry no shared sentinel: the server
// package sits below core in the import graph.
func (tc TopologyConfig) Validate() []error {
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("server: topology: "+format, args...))
	}
	if len(tc.Pools) == 0 {
		bad("no pools")
		return errs
	}
	index := make(map[string]int, len(tc.Pools))
	for i, p := range tc.Pools {
		if p.Name == "" {
			bad("pool %d has no name", i)
			continue
		}
		if _, dup := index[p.Name]; dup {
			bad("duplicate pool name %q", p.Name)
			continue
		}
		index[p.Name] = i
	}
	for _, p := range tc.Pools {
		name := p.Name
		if name == "" {
			continue
		}
		if p.Kind < PoolFront || p.Kind > PoolStore {
			bad("pool %q has unknown kind %d", name, int(p.Kind))
		}
		if p.Slot < 0 || p.Slot >= NumTiers {
			bad("pool %q slot %d out of range [0,%d)", name, int(p.Slot), NumTiers)
		}
		if p.Replicas <= 0 {
			bad("pool %q has %d replicas, need >= 1", name, p.Replicas)
		}
		if p.MinReplicas < 0 || p.MaxReplicas < 0 {
			bad("pool %q has negative replica bounds [%d,%d]", name, p.MinReplicas, p.MaxReplicas)
		} else if p.MaxReplicas > 0 {
			if p.MinReplicas > p.MaxReplicas {
				bad("pool %q replica bounds inverted [%d,%d]", name, p.MinReplicas, p.MaxReplicas)
			} else if p.Replicas < p.MinReplicas || p.Replicas > p.MaxReplicas {
				bad("pool %q starts at %d replicas outside bounds [%d,%d]",
					name, p.Replicas, p.MinReplicas, p.MaxReplicas)
			}
		}
		if math.IsNaN(p.DemandFrac) || math.IsInf(p.DemandFrac, 0) || p.DemandFrac < 0 {
			bad("pool %q has bad demand fraction %v", name, p.DemandFrac)
		}
		if math.IsNaN(p.WorkFrac) || math.IsInf(p.WorkFrac, 0) || p.WorkFrac < 0 {
			bad("pool %q has bad work fraction %v", name, p.WorkFrac)
		}
		if math.IsNaN(p.HitRatio) || p.HitRatio < 0 || p.HitRatio > 1 {
			bad("pool %q hit ratio %v outside [0,1]", name, p.HitRatio)
		} else if p.HitRatio > 0 && p.Kind != PoolCache {
			bad("pool %q has a hit ratio but is not a cache", name)
		}
		errs = append(errs, tierErrs(name+" pool", p.Tier)...)
		seen := make(map[string]bool, len(p.Downstream))
		for _, d := range p.Downstream {
			if _, ok := index[d]; !ok {
				bad("pool %q downstream %q does not exist", name, d)
				continue
			}
			if seen[d] {
				bad("pool %q lists downstream %q twice", name, d)
			}
			seen[d] = true
		}
	}
	if tc.Entry == "" {
		bad("no entry pool")
	} else if i, ok := index[tc.Entry]; !ok {
		bad("entry pool %q does not exist", tc.Entry)
	} else if k := tc.Pools[i].Kind; k == PoolCache || k == PoolStore {
		// An unknown kind is already reported above; only a valid
		// non-front kind earns the entry-specific error.
		bad("entry pool %q must be a front pool, is %s", tc.Entry, k)
	}
	if math.IsNaN(tc.NetworkHop) || math.IsInf(tc.NetworkHop, 0) || tc.NetworkHop < 0 {
		bad("NetworkHop %v must be non-negative", tc.NetworkHop)
	}
	errs = append(errs, tc.graphErrs(index)...)
	return errs
}

// graphErrs reports cycles and orphan pools: one error per back edge and
// one per pool unreachable from the entry. Edges to unknown names are
// skipped — they are reported separately.
func (tc TopologyConfig) graphErrs(index map[string]int) []error {
	var errs []error
	// Cycle detection: iterative DFS with colors, visiting pools in
	// declaration order so the report is deterministic.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(tc.Pools))
	var visit func(i int)
	visit = func(i int) {
		color[i] = gray
		for _, d := range tc.Pools[i].Downstream {
			j, ok := index[d]
			if !ok {
				continue
			}
			switch color[j] {
			case gray:
				errs = append(errs, fmt.Errorf("server: topology: cycle through edge %q -> %q",
					tc.Pools[i].Name, d))
			case white:
				visit(j)
			}
		}
		color[i] = black
	}
	for i := range tc.Pools {
		if color[i] == white {
			visit(i)
		}
	}
	// Orphans: pools the entry can never route a request to.
	entry, ok := index[tc.Entry]
	if !ok {
		return errs
	}
	reach := make([]bool, len(tc.Pools))
	queue := []int{entry}
	reach[entry] = true
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for _, d := range tc.Pools[i].Downstream {
			if j, ok := index[d]; ok && !reach[j] {
				reach[j] = true
				queue = append(queue, j)
			}
		}
	}
	for i, p := range tc.Pools {
		if !reach[i] && p.Name != "" {
			errs = append(errs, fmt.Errorf("server: topology: pool %q is orphaned (unreachable from entry %q)",
				p.Name, tc.Entry))
		}
	}
	return errs
}

// PoolLoad pairs one pool's offered load against its capacity over an
// interval: Offered in normalized demand seconds per second, Capacity in
// demand seconds per second executable across the pool's active replicas.
type PoolLoad struct {
	Pool     string
	Slot     TierID
	Kind     PoolKind
	Replicas int // active (routable) replicas
	Offered  float64
	Capacity float64
}

// Ratio returns offered load over capacity — the utilization demand the
// pool would need to keep up. Zero capacity (a fully drained pool) maps
// to +Inf under load and 0 when idle.
func (l PoolLoad) Ratio() float64 {
	if l.Capacity <= 0 {
		if l.Offered > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return l.Offered / l.Capacity
}

// BottleneckPool returns the index of the pool with the maximal
// offered-load/capacity ratio (ties break to the earliest pool), or -1
// for an empty slice. This is the pool-level generalization of the
// paper's which-tier bottleneck attribution: the pool that saturates
// first as load grows is the one already running closest to (or past)
// its capacity.
func BottleneckPool(loads []PoolLoad) int {
	best := -1
	var bestRatio float64
	for i, l := range loads {
		r := l.Ratio()
		if best < 0 || r > bestRatio {
			best, bestRatio = i, r
		}
	}
	return best
}
