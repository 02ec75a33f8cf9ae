package server

import (
	"errors"
	"fmt"

	"hpcap/internal/sim"
	"hpcap/internal/tpcw"
)

// DAGTestbed is the repository's one website simulator. Its serving path
// is an arbitrary tier DAG of replica pools (TopologyConfig): a load
// balancer round-robins requests across the entry pool's replicas, each of
// which holds its worker across a chain of downstream calls — caches
// answering some visits locally, store shards executing the rest.
//
// The paper's two-tier site is the degenerate topology (TwoTierTopology),
// and Testbed its two-slot view.
//
// The determinism contract is the order of Schedule calls and of random
// draws: the engine runs events in (time, scheduling order), and every
// draw comes from the testbed's, a tier's or a browser's own source, so
// two runs that schedule and draw in the same order are the same run, bit
// for bit — however the state between two events is stored. Every
// committed golden replays that order: pools are created in declaration
// order with one rng fork per replica, dispatch draws the app and DB
// demands up front, a hop's delay is drawn when the hop is scheduled, and
// the cache-hit coin is tossed only on arrival at a cache pool.
// testdata/two_tier_snapshots.golden pins the two-tier snapshot stream.
//
// A request travels as one pooled record (request) stepped by events, not
// as a chain of closures, so a request in flight allocates nothing.
type DAGTestbed struct {
	topo     TopologyConfig
	engine   *sim.Engine
	rng      *sim.Source
	profiles map[tpcw.Interaction]tpcw.Profile
	pools    []*pool
	byName   map[string]*pool
	entry    *pool

	schedule  tpcw.Schedule
	admission AdmissionFunc
	browsers  []*ebRunner
	retired   []*ebRunner // runners whose last callback has fired, for spawnEB to reuse
	free      []*request  // request records not in flight
	nextEBID  int
	started   bool

	// Per-interval request accounting.
	arrivals      int
	completions   int
	rejections    int
	classArrivals [tpcw.NumInteractions]int
	rtSum         float64
	rtMax         float64
	inFlight      int

	// Lifetime totals for conservation checking.
	totalArrivals    int
	totalCompletions int
	totalRejections  int

	// Autoscale accounting.
	scaleUps   int
	scaleDowns int

	lastLoads []PoolLoad     // loads of the last completed interval
	scratch   []PoolSnapshot // RunIntervalLegacy's pool telemetry, reused
}

// pool is one replica pool at runtime.
type pool struct {
	cfg  PoolConfig
	reps []*replica
	rr   int // round-robin routing cursor
	down []*pool

	offered      float64 // demand seconds offered this interval
	totalOffered float64
}

// replica is one machine of a pool. A draining replica finishes its
// in-flight work but receives no new requests and runs no housekeeping.
type replica struct {
	t        *tier
	draining bool
}

// active returns the number of routable replicas.
func (p *pool) active() int {
	n := 0
	for _, r := range p.reps {
		if !r.draining {
			n++
		}
	}
	return n
}

// capacity returns the pool's active capacity in demand seconds per
// second.
func (p *pool) capacity() float64 {
	return float64(p.active()) * p.cfg.Tier.Machine.Speed
}

// route picks the next replica round-robin, skipping draining machines.
// Routing is deterministic: no randomness, so the degenerate single-
// replica pool always routes to its only machine.
func (p *pool) route() *replica {
	for i := 0; i < len(p.reps); i++ {
		r := p.reps[p.rr%len(p.reps)]
		p.rr++
		if !r.draining {
			return r
		}
	}
	// Every replica is draining (the scale-down guard prevents this);
	// fall back to the first so in-flight traffic still lands somewhere.
	return p.reps[0]
}

// NewDAGTestbed builds a DAG testbed for the given topology and load
// schedule.
func NewDAGTestbed(topo TopologyConfig, schedule tpcw.Schedule) (*DAGTestbed, error) {
	if errs := topo.Validate(); len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	if err := schedule.Validate(); err != nil {
		return nil, err
	}
	engine := sim.NewEngine()
	rng := sim.NewSource(topo.Seed)
	tb := &DAGTestbed{
		topo:     topo,
		engine:   engine,
		rng:      rng,
		profiles: tpcw.DefaultProfiles(),
		schedule: schedule,
		byName:   make(map[string]*pool, len(topo.Pools)),
	}
	// Pools in declaration order, replicas in index order: the rng fork
	// sequence is part of the determinism contract (app then db for the
	// degenerate topology).
	for _, pc := range topo.Pools {
		p := &pool{cfg: pc}
		for i := 0; i < pc.Replicas; i++ {
			p.reps = append(p.reps, &replica{t: newTier(pc.Slot, pc.Tier, engine, rng.Fork())})
		}
		tb.pools = append(tb.pools, p)
		tb.byName[pc.Name] = p
	}
	for _, p := range tb.pools {
		for _, d := range p.cfg.Downstream {
			p.down = append(p.down, tb.byName[d])
		}
	}
	tb.entry = tb.byName[topo.Entry]
	return tb, nil
}

// SetAdmission installs an admission controller consulted at the entry
// pool. It must be called before Start.
func (tb *DAGTestbed) SetAdmission(f AdmissionFunc) { tb.admission = f }

// Start arms the load schedule. It must be called exactly once before
// RunInterval.
func (tb *DAGTestbed) Start() error {
	if tb.started {
		return fmt.Errorf("server: DAG testbed already started")
	}
	tb.started = true
	var elapsed float64
	for _, p := range tb.schedule.Phases {
		p := p
		tb.engine.At(elapsed, func() { tb.applyPhase(p) })
		elapsed += p.Duration
	}
	return nil
}

// applyPhase adjusts the EB population and mix to match the phase.
// browsers holds only the living, oldest first.
func (tb *DAGTestbed) applyPhase(p tpcw.Phase) {
	// Retire the most recently spawned browsers first. A retiree's pending
	// think or response event still fires and, finding !alive, hands the
	// runner to the retired list for a later spawn to reuse; dropping it
	// from the slice (and clearing the slot) keeps it out of every phase
	// change until then, so a cyclic schedule runs in memory bounded by
	// its peak population.
	for len(tb.browsers) > p.EBs {
		last := len(tb.browsers) - 1
		tb.browsers[last].alive = false
		tb.browsers[last] = nil
		tb.browsers = tb.browsers[:last]
	}
	// Retarget mixes and think times of the survivors. A sampler is
	// immutable: the phase builds one and every browser shares it.
	sampler := p.Mix.Sampler()
	for _, r := range tb.browsers {
		r.browser.SetSampler(sampler)
		r.browser.SetThinkScale(p.ThinkScale)
	}
	for len(tb.browsers) < p.EBs {
		tb.spawnEB(p.Mix, sampler, p.ThinkScale)
	}
}

// ebRunner is one live emulated browser, with its session and its
// generator in the same object. onThink is its issue method, bound once at
// the runner's first spawn: the think timer between two requests allocates
// nothing. A browser has exactly one pending continuation — its think
// timer, its request in flight, or a response about to be delivered — so
// when a retired runner's continuation fires (issue or respond finding
// !alive) nothing of it is left in the engine, and it joins the testbed's
// retired list for spawnEB to reuse.
type ebRunner struct {
	tb      *DAGTestbed
	alive   bool
	onThink func()
	browser tpcw.Browser
	src     sim.Source // the browser's own stream
}

// spawnEB creates a browser and starts its session loop with a staggered
// initial think so that populations do not issue in lockstep. The runner
// is the most recently retired one, re-seeded in place, or a new one.
func (tb *DAGTestbed) spawnEB(mix tpcw.Mix, sampler *tpcw.Sampler, thinkScale float64) {
	tb.nextEBID++
	var r *ebRunner
	if n := len(tb.retired); n > 0 {
		r = tb.retired[n-1]
		tb.retired[n-1] = nil
		tb.retired = tb.retired[:n-1]
		r.alive = true
	} else {
		r = &ebRunner{tb: tb, alive: true}
		r.onThink = r.issue
	}
	tb.rng.ForkInto(&r.src)
	r.browser = tpcw.NewBrowser(tb.nextEBID, mix, &r.src)
	r.browser.SetSampler(sampler)
	r.browser.SetThinkScale(thinkScale)
	tb.browsers = append(tb.browsers, r)
	initial := tb.rng.Float64() * r.browser.MeanThink
	tb.engine.Schedule(initial, r.onThink)
}

// issue runs one browser iteration: issue a request, then (in respond)
// think, forever while alive.
func (r *ebRunner) issue() {
	if !r.alive {
		r.tb.retired = append(r.tb.retired, r)
		return
	}
	r.tb.dispatch(r, r.browser.Next())
}

// respond delivers the response (or rejection) to the browser, which
// thinks and issues again.
func (r *ebRunner) respond() {
	if !r.alive {
		r.tb.retired = append(r.tb.retired, r)
		return
	}
	r.tb.engine.Schedule(r.browser.Think(), r.onThink)
}

// request is one interaction in flight: everything the walk through the
// DAG needs between two events, in one record. Its step method is bound
// once, when the record is first made, and is the only callback the
// request ever hands to Schedule, acquire or its burst; state says what
// the next call to it means. Records return to the testbed's free list
// when the response reaches the client, so a request in flight allocates
// nothing once the list has grown to the peak concurrency.
type request struct {
	tb     *DAGTestbed
	onStep func() // rq.step, bound once
	state  reqState
	inUse  bool // off the free list; step panics on a recycled record

	owner   *ebRunner
	arrival float64
	// The demands drawn up front, and the profile's working set; each
	// downstream pool takes its configured share of the DB pair.
	entryDemand float64
	dbDemand    float64
	dbWorkMB    float64

	// The entry replica's worker, held across the whole walk.
	entry       *replica
	entryWorkMB float64

	// The downstream visit in progress: its replica's slot is held for
	// one burst and released before the walk descends further.
	visit       *replica
	visitWorkMB float64
	visitInner  []*pool // the visited pool's own downstream, nil if the visit ends here

	// frames is the explicit stack of the walk: one frame per pool whose
	// downstream chain is being called, innermost last.
	frames []frame
	burst  burst
}

// frame is a position in one pool's downstream chain.
type frame struct {
	chain []*pool
	i     int
}

type reqState uint8

const (
	reqBound    reqState = iota // entry worker held: parse the request
	reqParsed                   // pre burst done: call the entry pool's chain
	reqArrived                  // hop out done: visit the frame's current pool
	reqServing                  // visited pool's slot held: run the query
	reqServed                   // query burst done: release, descend or hop back
	reqReturned                 // hop back done: next pool of the chain
	reqRendered                 // post burst done: respond
)

// newRequest takes a record off the free list, or makes one.
func (tb *DAGTestbed) newRequest() *request {
	var rq *request
	if n := len(tb.free); n > 0 {
		rq = tb.free[n-1]
		tb.free = tb.free[:n-1]
	} else {
		rq = &request{tb: tb}
		rq.onStep = rq.step
		rq.burst.done = rq.onStep
	}
	rq.inUse = true
	return rq
}

// dispatch pushes one interaction through the DAG; the browser hears back
// (respond) when the response or rejection reaches it. The entry pool's
// worker is held across the whole downstream walk — the request dead time
// of the paper, generalized to an arbitrary call chain.
func (tb *DAGTestbed) dispatch(r *ebRunner, it tpcw.Interaction) {
	prof, ok := tb.profiles[it]
	if !ok {
		r.respond()
		return
	}
	arrival := tb.engine.Now()
	tb.arrivals++
	tb.totalArrivals++
	tb.classArrivals[it-tpcw.Home]++

	ep := tb.entry
	rep := ep.route()
	if tb.admission != nil {
		state := AdmissionState{
			Now:          arrival,
			WaitQueue:    rep.t.waitQueue.len(),
			BoundWorkers: rep.t.bound,
		}
		if !tb.admission(state) {
			tb.rejections++
			tb.totalRejections++
			r.respond()
			return
		}
	}
	tb.inFlight++

	// Draw the request's actual demands once, up front: two draws per
	// request whatever the topology, so adding a pool never shifts the
	// demand stream.
	appDemand := tb.rng.LogNormal(prof.AppDemand, prof.CV)
	dbDemand := tb.rng.LogNormal(prof.DBDemand, prof.CV)
	entryDemand := appDemand * ep.cfg.DemandFrac
	ep.offered += entryDemand
	ep.totalOffered += entryDemand

	rq := tb.newRequest()
	rq.owner, rq.arrival = r, arrival
	rq.entryDemand, rq.dbDemand, rq.dbWorkMB = entryDemand, dbDemand, prof.DBWorkMB
	rq.entry = rep
	rq.entryWorkMB = prof.AppWorkMB * ep.cfg.WorkFrac
	rq.state = reqBound
	rep.t.acquire(rq.entryWorkMB, rq.onStep)
}

// step advances the request by one event: a slot granted, a burst
// completed or a network hop traversed. The order of Schedule calls and of
// random draws it makes is the determinism contract (see DAGTestbed).
func (rq *request) step() {
	if !rq.inUse {
		panic("server: event delivered to a recycled request record")
	}
	tb := rq.tb
	switch rq.state {
	case reqBound:
		rq.state = reqParsed
		rq.burst.remaining = rq.entryDemand * 0.6 // request parsing, servlet logic
		rq.entry.t.runBurst(&rq.burst)
	case reqParsed:
		rq.frames = append(rq.frames[:0], frame{chain: tb.entry.down})
		rq.walk()
	case reqArrived:
		f := rq.frames[len(rq.frames)-1]
		p := f.chain[f.i]
		rep := p.route()
		rq.visit = rep
		rq.visitWorkMB = rq.dbWorkMB * p.cfg.WorkFrac
		demand := rq.dbDemand * p.cfg.DemandFrac
		rq.burst.remaining = demand // run once the slot is held
		p.offered += demand
		p.totalOffered += demand
		// A cache hit is answered locally, downstream untouched. The coin
		// is tossed only on arrival at a cache pool.
		rq.visitInner = p.down
		if p.cfg.Kind == PoolCache && tb.rng.Float64() < p.cfg.HitRatio {
			rq.visitInner = nil
		}
		rq.state = reqServing
		rep.t.acquire(rq.visitWorkMB, rq.onStep)
	case reqServing:
		rq.state = reqServed
		rq.visit.t.runBurst(&rq.burst)
	case reqServed:
		rq.visit.t.release(rq.visitWorkMB)
		if len(rq.visitInner) > 0 {
			rq.frames = append(rq.frames, frame{chain: rq.visitInner})
			rq.walk()
			return
		}
		rq.state = reqReturned
		tb.hop(rq.onStep)
	case reqReturned:
		rq.frames[len(rq.frames)-1].i++
		rq.walk()
	case reqRendered:
		rq.entry.t.release(rq.entryWorkMB)
		rt := tb.engine.Now() - rq.arrival
		tb.completions++
		tb.totalCompletions++
		tb.inFlight--
		tb.rtSum += rt
		if rt > tb.rtMax {
			tb.rtMax = rt
		}
		owner := rq.owner
		rq.owner, rq.entry, rq.visit, rq.visitInner = nil, nil, nil, nil
		rq.inUse = false
		tb.free = append(tb.free, rq)
		owner.respond()
	}
}

// walk continues the innermost chain: hop to its next pool, or, the chain
// exhausted, return to the caller — a hop back to the pool that called it,
// or, for the entry pool's own chain, the response rendering.
func (rq *request) walk() {
	top := len(rq.frames) - 1
	if f := rq.frames[top]; f.i < len(f.chain) {
		rq.state = reqArrived
		rq.tb.hop(rq.onStep)
		return
	}
	rq.frames = rq.frames[:top]
	if top == 0 {
		rq.state = reqRendered
		rq.burst.remaining = rq.entryDemand * 0.4 // response rendering
		rq.entry.t.runBurst(&rq.burst)
		return
	}
	rq.state = reqReturned
	rq.tb.hop(rq.onStep)
}

// hop models one network traversal between machines; the delay is drawn
// when the hop is scheduled.
func (tb *DAGTestbed) hop(fn func()) {
	tb.engine.Schedule(tb.topo.NetworkHop/2+tb.rng.Exp(tb.topo.NetworkHop/2), fn)
}

// AddPeriodicLoad schedules a recurring CPU burst on every replica of the
// named pool every period seconds — the cost of per-machine collection
// daemons. Call before the simulation advances past time zero; replicas
// added later by AddReplica do not inherit it.
func (tb *DAGTestbed) AddPeriodicLoad(poolName string, period, demand float64) {
	p, ok := tb.byName[poolName]
	if !ok {
		return
	}
	for _, r := range p.reps {
		t := r.t
		var tick func()
		tick = func() {
			// A fresh burst per tick: under overload the last one may
			// still be queued.
			t.runBurst(&burst{remaining: demand})
			tb.engine.Schedule(period, tick)
		}
		tb.engine.Schedule(period, tick)
	}
}

// AddReplica grows the named pool by one machine, reviving the most
// recently drained replica if one exists (its caches are still warm) and
// cold-starting a fresh tier otherwise. It reports the new active count
// and whether anything changed; pools at MaxReplicas refuse.
func (tb *DAGTestbed) AddReplica(poolName string) (int, bool) {
	p, ok := tb.byName[poolName]
	if !ok {
		return 0, false
	}
	max := p.cfg.MaxReplicas
	if max <= 0 {
		max = p.cfg.Replicas
	}
	if p.active() >= max {
		return p.active(), false
	}
	for i := len(p.reps) - 1; i >= 0; i-- {
		r := p.reps[i]
		if !r.draining {
			continue
		}
		r.draining = false
		t := r.t
		t.stopped = false
		// The housekeeping daemon restarts now; credit does not accrue
		// over the drained gap.
		t.bgAccrued = tb.engine.Now()
		if t.cfg.BackgroundRate > 0 {
			tb.engine.Schedule(0, t.kick)
		}
		tb.scaleUps++
		return p.active(), true
	}
	p.reps = append(p.reps, &replica{t: newTier(p.cfg.Slot, p.cfg.Tier, tb.engine, tb.rng.Fork())})
	tb.scaleUps++
	return p.active(), true
}

// RemoveReplica drains the named pool's most recently added active
// replica: it leaves the routing rotation immediately and stops its
// housekeeping, but finishes whatever requests it holds. It reports the
// new active count and whether anything changed; pools at MinReplicas
// (or one machine) refuse.
func (tb *DAGTestbed) RemoveReplica(poolName string) (int, bool) {
	p, ok := tb.byName[poolName]
	if !ok {
		return 0, false
	}
	min := p.cfg.MinReplicas
	if min < 1 {
		min = 1
	}
	if p.active() <= min {
		return p.active(), false
	}
	for i := len(p.reps) - 1; i >= 0; i-- {
		r := p.reps[i]
		if r.draining {
			continue
		}
		r.draining = true
		r.t.stopped = true
		tb.scaleDowns++
		return p.active(), true
	}
	return p.active(), false
}

// ScaleEvents returns the lifetime count of replica additions and
// removals.
func (tb *DAGTestbed) ScaleEvents() (ups, downs int) {
	return tb.scaleUps, tb.scaleDowns
}

// Replicas returns the named pool's active replica count (0 for an
// unknown pool).
func (tb *DAGTestbed) Replicas(poolName string) int {
	if p, ok := tb.byName[poolName]; ok {
		return p.active()
	}
	return 0
}

// PoolLoads returns each pool's offered load versus capacity over the
// last completed interval, in pool declaration order. Before the first
// RunInterval it returns zero loads at current capacity.
func (tb *DAGTestbed) PoolLoads() []PoolLoad {
	if tb.lastLoads != nil {
		return append([]PoolLoad(nil), tb.lastLoads...)
	}
	loads := make([]PoolLoad, len(tb.pools))
	for i, p := range tb.pools {
		loads[i] = PoolLoad{
			Pool: p.cfg.Name, Slot: p.cfg.Slot, Kind: p.cfg.Kind,
			Replicas: p.active(), Capacity: p.capacity(),
		}
	}
	return loads
}

// LifetimeLoads returns each pool's mean offered load over the whole run
// against its current capacity.
func (tb *DAGTestbed) LifetimeLoads() []PoolLoad {
	elapsed := tb.engine.Now()
	loads := make([]PoolLoad, len(tb.pools))
	for i, p := range tb.pools {
		l := PoolLoad{
			Pool: p.cfg.Name, Slot: p.cfg.Slot, Kind: p.cfg.Kind,
			Replicas: p.active(), Capacity: p.capacity(),
		}
		if elapsed > 0 {
			l.Offered = p.totalOffered / elapsed
		}
		loads[i] = l
	}
	return loads
}

// Bottleneck identifies the bottleneck pool — the maximal offered-load/
// capacity ratio over the whole run (BottleneckPool's rule).
func (tb *DAGTestbed) Bottleneck() string {
	loads := tb.LifetimeLoads()
	i := BottleneckPool(loads)
	if i < 0 {
		return ""
	}
	return loads[i].Pool
}

// PoolSnapshot is one pool's interval telemetry: the counter vector of
// every replica (draining machines included, flagged), plus the pool's
// offered load and active capacity.
type PoolSnapshot struct {
	Pool string
	Kind PoolKind
	Slot TierID
	// Replicas holds the per-replica counter vectors; Draining flags the
	// machines that are finishing in-flight work outside the rotation.
	Replicas []TierSnapshot
	Draining []bool
	Active   int
	// Offered is the demand offered to the pool over the interval, in
	// demand seconds per second; Capacity what its active replicas can
	// execute.
	Offered  float64
	Capacity float64
}

// Load converts the snapshot's offered/capacity pair to a PoolLoad.
func (ps PoolSnapshot) Load() PoolLoad {
	return PoolLoad{
		Pool: ps.Pool, Slot: ps.Slot, Kind: ps.Kind,
		Replicas: ps.Active, Offered: ps.Offered, Capacity: ps.Capacity,
	}
}

// DAGSnapshot is the DAG testbed's telemetry for one sampling interval.
type DAGSnapshot struct {
	Time  float64
	Pools []PoolSnapshot

	Arrivals      int
	Completions   int
	Rejections    int
	ClassArrivals [tpcw.NumInteractions]int
	MeanRT        float64
	MaxRT         float64

	InFlight  int
	ActiveEBs int
}

// Legacy folds the DAG snapshot into the fixed two-slot Snapshot the
// metric collectors consume: each slot carries the replica-mean counters
// of the (non-draining) replicas of every pool feeding it. A slot backed
// by exactly one replica is copied bit for bit, so the two-tier site's
// counters reach the collectors unaveraged.
func (s DAGSnapshot) Legacy() Snapshot {
	out := Snapshot{
		Time:          s.Time,
		Arrivals:      s.Arrivals,
		Completions:   s.Completions,
		Rejections:    s.Rejections,
		ClassArrivals: s.ClassArrivals,
		MeanRT:        s.MeanRT,
		MaxRT:         s.MaxRT,
		InFlight:      s.InFlight,
		ActiveEBs:     s.ActiveEBs,
	}
	// Stack room for four machines a slot, so that folding the usual site
	// allocates nothing; a wider slot spills to the heap.
	var room [NumTiers][4]TierSnapshot
	var bySlot [NumTiers][]TierSnapshot
	for slot := range bySlot {
		bySlot[slot] = room[slot][:0]
	}
	for _, p := range s.Pools {
		if p.Slot < 0 || p.Slot >= NumTiers {
			continue
		}
		for i, ts := range p.Replicas {
			if p.Draining[i] {
				continue
			}
			bySlot[p.Slot] = append(bySlot[p.Slot], ts)
		}
	}
	for slot, reps := range bySlot {
		switch len(reps) {
		case 0:
			out.Tiers[slot] = TierSnapshot{Tier: TierID(slot), MeanDilation: 1}
		case 1:
			ts := reps[0]
			ts.Tier = TierID(slot)
			out.Tiers[slot] = ts
		default:
			out.Tiers[slot] = meanTierSnapshot(TierID(slot), reps)
		}
	}
	return out
}

// meanTierSnapshot averages n replica snapshots into one machine-mean
// snapshot: flows and gauges divide by n (integers rounding to nearest),
// the dilation and miss-ratio diagnostics weight by busy time.
func meanTierSnapshot(id TierID, reps []TierSnapshot) TierSnapshot {
	n := float64(len(reps))
	var out TierSnapshot
	out.Tier = id
	var dilSum, missSum float64
	for _, ts := range reps {
		out.BusySeconds += ts.BusySeconds
		out.FgBusySeconds += ts.FgBusySeconds
		out.Instructions += ts.Instructions
		out.Cycles += ts.Cycles
		out.L2Refs += ts.L2Refs
		out.L2Misses += ts.L2Misses
		out.CtxSwitches += ts.CtxSwitches
		out.ITLBMisses += ts.ITLBMisses
		out.Branches += ts.Branches
		out.BranchMiss += ts.BranchMiss
		out.Bursts += ts.Bursts
		out.RunQueue += ts.RunQueue
		out.BoundWorkers += ts.BoundWorkers
		out.WaitQueue += ts.WaitQueue
		out.WorkingSetMB += ts.WorkingSetMB
		dilSum += ts.MeanDilation * ts.BusySeconds
		missSum += ts.MeanMissRatio * ts.BusySeconds
	}
	out.BusySeconds /= n
	out.FgBusySeconds /= n
	out.Instructions /= n
	out.Cycles /= n
	out.L2Refs /= n
	out.L2Misses /= n
	out.CtxSwitches /= n
	out.ITLBMisses /= n
	out.Branches /= n
	out.BranchMiss /= n
	out.WorkingSetMB /= n
	out.Bursts = roundDiv(out.Bursts, len(reps))
	out.RunQueue = roundDiv(out.RunQueue, len(reps))
	out.BoundWorkers = roundDiv(out.BoundWorkers, len(reps))
	out.WaitQueue = roundDiv(out.WaitQueue, len(reps))
	if out.BusySeconds > 0 {
		out.MeanDilation = dilSum / (out.BusySeconds * n)
		out.MeanMissRatio = missSum / (out.BusySeconds * n)
	} else {
		out.MeanDilation = 1
	}
	return out
}

// roundDiv divides non-negative integers rounding to nearest.
func roundDiv(a, n int) int {
	return (a + n/2) / n
}

// RunInterval advances the simulation dt seconds and returns the
// interval's telemetry. The snapshot's slices are the caller's to keep.
func (tb *DAGTestbed) RunInterval(dt float64) DAGSnapshot {
	tb.run(dt)
	return tb.sample(dt, nil)
}

// RunIntervalLegacy advances dt seconds and returns the interval's
// telemetry already folded to the two-slot layout (Testbed.RunInterval).
// A Snapshot holds no slices, so the fold reads the pools from scratch the
// testbed owns and the call allocates nothing.
func (tb *DAGTestbed) RunIntervalLegacy(dt float64) Snapshot {
	tb.run(dt)
	s := tb.sample(dt, tb.scratch)
	tb.scratch = s.Pools
	return s.Legacy()
}

// run advances the simulation dt seconds.
func (tb *DAGTestbed) run(dt float64) {
	target := tb.engine.Now() + dt
	// Sentinel pins the clock to the interval boundary even if the event
	// queue momentarily empties.
	tb.engine.At(target, func() {})
	tb.engine.RunUntil(target)
}

// sample collects and resets interval accounting. The per-pool telemetry
// is written over buf — the slices of an earlier snapshot nobody reads any
// more — or, buf lacking room, into new slices.
func (tb *DAGTestbed) sample(dt float64, buf []PoolSnapshot) DAGSnapshot {
	s := DAGSnapshot{
		Time:          tb.engine.Now(),
		Arrivals:      tb.arrivals,
		Completions:   tb.completions,
		Rejections:    tb.rejections,
		ClassArrivals: tb.classArrivals,
		MaxRT:         tb.rtMax,
		InFlight:      tb.inFlight,
		ActiveEBs:     len(tb.browsers),
	}
	if tb.completions > 0 {
		s.MeanRT = tb.rtSum / float64(tb.completions)
	}
	if cap(buf) < len(tb.pools) {
		buf = make([]PoolSnapshot, len(tb.pools))
	}
	s.Pools = buf[:len(tb.pools)]
	tb.lastLoads = tb.lastLoads[:0]
	for i, p := range tb.pools {
		ps := &s.Pools[i]
		reps, draining := ps.Replicas[:0], ps.Draining[:0]
		if cap(reps) < len(p.reps) {
			reps, draining = make([]TierSnapshot, 0, len(p.reps)), make([]bool, 0, len(p.reps))
		}
		for _, r := range p.reps {
			reps = append(reps, r.t.snapshot())
			draining = append(draining, r.draining)
		}
		*ps = PoolSnapshot{
			Pool:     p.cfg.Name,
			Kind:     p.cfg.Kind,
			Slot:     p.cfg.Slot,
			Replicas: reps,
			Draining: draining,
			Active:   p.active(),
			Capacity: p.capacity(),
		}
		if dt > 0 {
			ps.Offered = p.offered / dt
		}
		p.offered = 0
		tb.lastLoads = append(tb.lastLoads, ps.Load())
	}
	tb.arrivals, tb.completions, tb.rejections = 0, 0, 0
	tb.classArrivals = [tpcw.NumInteractions]int{}
	tb.rtSum, tb.rtMax = 0, 0
	return s
}

// Conservation returns lifetime totals for invariant checking: every
// arrival is eventually a completion, a rejection, or still in flight.
func (tb *DAGTestbed) Conservation() (arrivals, completions, rejections, inFlight int) {
	return tb.totalArrivals, tb.totalCompletions, tb.totalRejections, tb.inFlight
}
