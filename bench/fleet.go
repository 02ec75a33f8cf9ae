package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hpcap/internal/fuse"
	"hpcap/internal/serve"
)

// fleetSpec sizes one fleet workload: many sites replaying the recorded
// vectors at one scrape per synthetic second.
type fleetSpec struct {
	name  string
	sites int
	fuse  bool
	// faultyMod makes the sites with i%faultyMod == faultyMod-1 replay the
	// pre-faulted recording; 0 leaves every site on the clean one.
	faultyMod int
	// net ships the scrapes over loopback TCP instead of a Batcher.
	net bool
	// segSeconds is the synthetic seconds in one drain segment — whole
	// windows, so every segment closes the same number of them.
	segSeconds int
	// interval is the wall time between paced rounds, chosen so the paced
	// phase offers at most a quarter of what the drain phase sustains.
	interval time.Duration
	// path lists the replayed layers on the workload's blocking path.
	path []term
}

// fleet is a fleetSpec bound to its inputs.
type fleet struct {
	spec   fleetSpec
	env    *env
	names  []string
	faulty []bool
}

func newFleet(e *env, spec fleetSpec) *fleet {
	f := &fleet{spec: spec, env: e, names: make([]string, spec.sites), faulty: make([]bool, spec.sites)}
	for i := range f.names {
		f.names[i] = fmt.Sprintf("site-%06d", i)
		f.faulty[i] = spec.faultyMod > 0 && i%spec.faultyMod == spec.faultyMod-1
	}
	return f
}

// at returns the clean and the pre-faulted scrape of a synthetic second.
func (f *fleet) at(sec int) (clean, faulty scrape) {
	i := (sec - 1) % len(f.env.clean)
	return f.env.clean[i], f.env.faulty[i]
}

func (f *fleet) serveConfig(s *sink) serve.Config {
	cfg := serve.Config{OnDecision: s.onDecision}
	if f.spec.fuse {
		fc := fuse.DefaultConfig()
		cfg.Fuse = &fc
	}
	return cfg
}

// sink receives every published decision of one pipeline: it counts
// them, folds the first common windows into the digest, and — once armed
// for a paced phase — times each from the due time of the round that
// closed its window. It is called from the shard goroutines.
type sink struct {
	common int64
	digest atomic.Uint64
	count  atomic.Int64

	base  time.Time
	dueNs []int64   // per window: due offset of its closing round; nil unless armed
	lat   [][]int64 // per window: due → OnDecision, in callback order
	n     []atomic.Int64
}

// arm prepares the sink for a paced phase of the given shape.
func (s *sink) arm(base time.Time, interval time.Duration, windows, sites int) {
	s.base = base
	s.dueNs = make([]int64, windows)
	s.lat = make([][]int64, windows)
	s.n = make([]atomic.Int64, windows)
	for k := range s.dueNs {
		s.dueNs[k] = int64((k + 1) * window * int(interval))
		s.lat[k] = make([]int64, sites)
	}
}

func (s *sink) onDecision(d serve.Decision) {
	s.count.Add(1)
	if d.Seq < s.common {
		s.digest.Add(decisionHash(&d))
	}
	if d.Seq >= 0 && d.Seq < int64(len(s.dueNs)) {
		if k := s.n[d.Seq].Add(1) - 1; k < int64(len(s.lat[d.Seq])) {
			s.lat[d.Seq][k] = time.Since(s.base).Nanoseconds() - s.dueNs[d.Seq]
		}
	}
}

// window returns the latencies recorded for one window.
func (s *sink) window(k int) []int64 {
	return s.lat[k][:min(s.n[k].Load(), int64(len(s.lat[k])))]
}

// path is one way of getting a fleet's scrapes into a sharded pipeline.
type path interface {
	// round offers every site's scrape for one synthetic second. A traced
	// round times one producer-side call in callSampleEvery, and records
	// them as spans under parent unless parent is 0.
	round(sec int, tr *tracer, parent int32) error
	// barrier returns once everything offered so far has been applied
	// and its decisions published.
	barrier() error
	// close stops everything the path started.
	close()
	pipeline() *serve.ShardedPipeline
	stats() pathStats
}

// pathStats is what a path observed of its own calls and, on the
// network path, what the transport's exported counters say.
type pathStats struct {
	callNs, calls int64 // producer-side calls timed one in callSampleEvery
	net           netStats
}

// newPath builds a fleet's pipeline on the given number of shards and
// the path into it that the spec names.
func newPath(f *fleet, s *sink, shards int, flushEachRound bool, hook func([]byte) error) (path, error) {
	sp, err := serve.NewShardedPipeline(f.env.monitor, f.serveConfig(s), serve.ShardConfig{Shards: shards})
	if err != nil {
		return nil, err
	}
	if f.spec.net {
		return newNetPath(f, sp, flushEachRound, hook), nil
	}
	p := &directPath{f: f, sp: sp, refs: make([]serve.SiteRef, len(f.names)), bt: sp.NewBatcher()}
	for i, name := range f.names {
		p.refs[i] = sp.Register(name)
	}
	return p, nil
}

// fleetShards is the shard count of every workload: one per processor of
// the sandbox.
const fleetShards = 2

// directPath is the in-process fleet path: Register once, then one
// Batcher.AddSite per site-second from a single producer.
type directPath struct {
	f    *fleet
	sp   *serve.ShardedPipeline
	refs []serve.SiteRef
	bt   *serve.Batcher
	st   pathStats
}

func (p *directPath) round(sec int, tr *tracer, parent int32) error {
	ts := float64(sec)
	clean, faulty := p.f.at(sec)
	for i, ref := range p.refs {
		s := clean
		if p.f.faulty[i] {
			s = faulty
		}
		if tr != nil && i%callSampleEvery == 0 {
			t0 := time.Now()
			p.bt.AddSite(ref, ts, s)
			t1 := time.Now()
			p.st.callNs += t1.Sub(t0).Nanoseconds()
			p.st.calls++
			if parent != 0 {
				tr.add("serve.AddSite", parent, sec, t0, t1, nil)
			}
			continue
		}
		p.bt.AddSite(ref, ts, s)
	}
	// A partial batch would otherwise wait for the next round's scrapes.
	p.bt.Flush()
	return nil
}

func (p *directPath) barrier() error {
	p.bt.Flush()
	p.sp.Sync()
	return nil
}

func (p *directPath) close()                           { p.sp.Close() }
func (p *directPath) pipeline() *serve.ShardedPipeline { return p.sp }
func (p *directPath) stats() pathStats                 { return p.st }

// drainResult is the closed-loop phase as measured.
type drainResult struct {
	segS    []float64 // wall seconds of each measured segment
	seconds int       // synthetic seconds streamed, warm-up included
	before  procSnap  // after the warm-up segment
	after   procSnap
}

// drain streams equal-work segments as fast as backpressure allows, each
// ending at a barrier so queues cannot hide work. The first segment warms
// the site tables and is discarded; after it, segments run until the
// budget is spent and at least minSegs are in hand.
func drain(p path, f *fleet, budget time.Duration, minSegs int, tr *tracer, parent int32, peak *rssPeak) (drainResult, error) {
	var res drainResult
	segment := func(n int) (float64, error) {
		id := tr.start("segment", parent, n)
		t0 := time.Now()
		for k := 0; k < f.spec.segSeconds; k++ {
			res.seconds++
			// No per-call spans here: a drain makes a million sampled
			// calls, and the paced phase's spans show the same call.
			if err := p.round(res.seconds, tr, 0); err != nil {
				return 0, err
			}
		}
		sync := tr.start("barrier", id, n)
		err := p.barrier()
		tr.end(sync)
		d := time.Since(t0).Seconds()
		tr.end(id)
		peak.poll()
		return d, err
	}
	if _, err := segment(0); err != nil {
		return res, err
	}
	res.before = snapProc()
	start := time.Now()
	for len(res.segS) < minSegs || time.Since(start) < budget {
		d, err := segment(len(res.segS) + 1)
		if err != nil {
			return res, err
		}
		res.segS = append(res.segS, d)
	}
	res.after = snapProc()
	return res, nil
}

// pacedResult is the open-loop phase as measured.
type pacedResult struct {
	lateMs   []float64 // per round: start − due
	depthMax float64   // deepest shard queue seen at a round's end (traced runs)
}

// paced offers one scrape round per fixed wall interval whether or not
// the pipeline keeps up, and leaves the per-decision timing to the sink.
func paced(p path, f *fleet, s *sink, rounds int, tr *tracer, parent int32, peak *rssPeak) (pacedResult, error) {
	res := pacedResult{lateMs: make([]float64, 0, rounds)}
	base := time.Now().Add(10 * time.Millisecond)
	s.arm(base, f.spec.interval, rounds/window, len(f.names))
	closing := make([]int32, rounds/window)
	for r := 1; r <= rounds; r++ {
		due := base.Add(time.Duration(r) * f.spec.interval)
		if r%window == 0 {
			wakeUntil(due)
		} else {
			time.Sleep(time.Until(due))
		}
		res.lateMs = append(res.lateMs, float64(time.Since(due).Nanoseconds())/1e6)
		id := tr.start("round", parent, r)
		if err := p.round(r, tr, id); err != nil {
			return res, err
		}
		if tr != nil {
			depth := float64(p.pipeline().Totals().QueueDepth)
			tr.count(id, "serve.queue_depth", depth)
			res.depthMax = max(res.depthMax, depth)
		}
		tr.end(id)
		if r%window == 0 {
			closing[r/window-1] = id
		}
		peak.poll()
	}
	sync := tr.start("barrier", parent, rounds)
	err := p.barrier()
	tr.end(sync)
	if tr != nil {
		// A window's decisions are the closing span of its round.
		for k, id := range closing {
			lat := s.window(k)
			if len(lat) == 0 {
				continue
			}
			lo, hi := lat[0], lat[0]
			for _, v := range lat {
				lo, hi = min(lo, v), max(hi, v)
			}
			at := func(ns int64) time.Time { return base.Add(time.Duration(s.dueNs[k] + ns)) }
			tr.add("serve.decisions", id, (k+1)*window, at(lo), at(hi), map[string]float64{"decisions": float64(len(lat))})
		}
	}
	return res, err
}

// spinLead is how long before a closing round is due the generator stops
// sleeping and keeps every processor awake instead. A sleep on this
// sandbox returns up to 1.5 ms late, and a processor that sat idle since
// the last round can take milliseconds to come back, because the host has
// lent it out: closing rounds of the same work took 4, 6 or 11 ms. Both
// delays are the sandbox's, not the pipeline's.
const spinLead = 3 * time.Millisecond

// wakeUntil returns at t, not after it, with every processor awake: it
// sleeps to within spinLead of t, then polls the clock on one goroutine
// per processor.
func wakeUntil(t time.Time) {
	time.Sleep(time.Until(t) - spinLead)
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(t) {
			}
		}()
	}
	wg.Wait()
}

// pacedShare is the paced phase's part of a run's measuring time. Latency
// needs the larger part: a window closes only every thirtieth round.
const pacedShare = 0.65

// fleetRun is a fleet workload with its first pipeline built: what
// set-up hands to the timed phases.
type fleetRun struct {
	f     *fleet
	o     opts
	sink  *sink
	first path
}

func prepareFleet(spec fleetSpec) func(*env, opts) (runner, error) {
	return func(e *env, o opts) (runner, error) {
		if o.tiny {
			spec.sites = max(spec.sites/100, 40)
		}
		r := &fleetRun{f: newFleet(e, spec), o: o}
		r.sink = &sink{common: int64(r.pacedRounds() / window)}
		var err error
		r.first, err = newPath(r.f, r.sink, fleetShards, true, nil)
		return r, err
	}
}

// pacedRounds is the paced phase's share of the run, in whole windows.
func (r *fleetRun) pacedRounds() int {
	rounds := int(pacedShare * r.o.seconds * float64(time.Second) / float64(r.f.spec.interval))
	return max(rounds/window, 1) * window
}

func (r *fleetRun) close() { r.first.close() }

func (r *fleetRun) run(tr *tracer) (*outcome, error) {
	f := r.f
	out := newOutcome(f.env.clean, f.env.faulty, f.spec.fuse, f.spec.faultyMod)
	out.sim, out.simSeconds, out.path = steadySim(f.env.seed), recordSeconds, f.spec.path
	root := tr.start(f.spec.name, 0, 0)
	var peak rssPeak

	// Drain: closed loop, fixed work per segment.
	// At least as many segments as the paced phase closes windows, however
	// slow the machine is today: the digests compare every one of them.
	minSegs := 8
	if r.o.tiny {
		minSegs = 1
	}
	minSegs = max(minSegs, int(r.sink.common))
	id := tr.start("drain", root, 0)
	dr, err := drain(r.first, f, time.Duration((1-pacedShare)*r.o.seconds*float64(time.Second)), minSegs, tr, id, &peak)
	tr.end(id)
	drained := r.first.stats()
	drainTotals, drainShards, drainSites := snapshotPipeline(r.first.pipeline())
	r.first.close()
	if err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	segSamples := float64(len(f.names) * tiers * f.spec.segSeconds)
	rates := make([]float64, len(dr.segS))
	for i, s := range dr.segS {
		rates[i] = segSamples / s
	}
	measured := segSamples * float64(len(dr.segS))
	out.samplesPerS = quietRate(rates)
	out.allocsPerSample = float64(dr.after.mallocs-dr.before.mallocs) / measured
	out.cpuNsPerSample = (dr.after.cpu - dr.before.cpu) * 1e9 / measured
	procRows(out.layer, dr.before, dr.after)

	// Paced: open loop on a fresh pipeline.
	runtime.GC()
	rounds := r.pacedRounds()
	ps := &sink{common: r.sink.common}
	pp, err := newPath(f, ps, fleetShards, false, nil)
	if err != nil {
		return nil, err
	}
	id = tr.start("paced", root, 0)
	pr, err := paced(pp, f, ps, rounds, tr, id, &peak)
	tr.end(id)
	pacedStats := pp.stats()
	pacedTotals, _, pacedSites := snapshotPipeline(pp.pipeline())
	pp.close()
	if err != nil {
		return nil, fmt.Errorf("paced: %w", err)
	}
	var p50s, p99s, bursts, pooled []float64
	for k := 0; k < rounds/window; k++ {
		lat := sorted(nsToFloat(ps.window(k)))
		if len(lat) == 0 {
			continue
		}
		p50s = append(p50s, quantile(lat, 0.5)/1e6)
		p99s = append(p99s, quantile(lat, 0.99)/1e6)
		bursts = append(bursts, lat[len(lat)-1]/float64(len(lat)))
		pooled = append(pooled, lat...)
	}
	out.latP50Ms, out.layer["serve.decision_lat_p99_ms"] = quietLatency(p50s), quietLatency(p99s)
	out.peakRSSMiB = peak.mib()
	tr.end(root)

	// Output checks.
	drainWindows := int64(dr.seconds / window)
	out.expect("drain", int64(len(f.names))*drainWindows, r.sink.count.Load())
	out.expect("paced", int64(len(f.names))*int64(rounds/window), ps.count.Load())
	out.check(drainWindows >= r.sink.common, "drain closed %d windows, fewer than the %d the digests compare", drainWindows, r.sink.common)
	out.check(r.sink.digest.Load() == ps.digest.Load(), "drain digest %016x != paced digest %016x", r.sink.digest.Load(), ps.digest.Load())
	out.conserve("drain", f, dr.seconds, drainTotals, drainSites, drained.net)
	out.conserve("paced", f, rounds, pacedTotals, pacedSites, pacedStats.net)
	if f.spec.net {
		// The network must be invisible to the verdicts: the same stream
		// ingested in-process gives the same digest.
		direct := *f
		direct.spec.net = false
		ts := &sink{common: r.sink.common}
		tp, err := newPath(&direct, ts, fleetShards, true, nil)
		if err != nil {
			return nil, err
		}
		for sec := 1; sec <= int(r.sink.common)*window && err == nil; sec++ {
			err = tp.round(sec, nil, 0)
		}
		if err == nil {
			err = tp.barrier()
		}
		tp.close()
		if err != nil {
			return nil, err
		}
		out.check(ts.digest.Load() == ps.digest.Load(), "network digest %016x != direct digest %016x", ps.digest.Load(), ts.digest.Load())
	}

	// Run rows of the ledger.
	siteRows(out.layer, append(drainSites, pacedSites...), len(f.env.clean[0][0]))
	shardRows(out.layer, []serve.ShardStats{drainTotals, pacedTotals}, drainShards)
	netRows(out.layer, drained.net, pacedStats.net)
	out.layer["serve.enqueue_ns"] = 0
	if !f.spec.net { // the network path's producer calls Send, a probe row
		out.layer["serve.enqueue_ns"] = ratio(float64(drained.callNs+pacedStats.callNs), float64(drained.calls+pacedStats.calls))
	}
	out.layer["serve.queue_depth_max"] = pr.depthMax
	out.layer["serve.burst_ns_per_decision"] = median(bursts)
	late := sorted(pr.lateMs)
	out.layer["gen.late_max_ms"] = late[len(late)-1]
	out.layer["gen.late_p99_ms"] = quantile(late, 0.99)
	out.layer["gen.pooled_lat_p999_ms"] = quantile(sorted(pooled), 0.999) / 1e6
	zero(out.layer, liveRowNames...)
	return out, nil
}

// snapshotPipeline reads the counters a sharded pipeline exports.
func snapshotPipeline(sp *serve.ShardedPipeline) (serve.ShardStats, []serve.ShardStats, []serve.SiteStats) {
	return sp.Totals(), sp.ShardStats(), sp.Stats()
}
