package serve

import (
	"math"
	"sort"
	"sync/atomic"
	"time"

	"hpcap/internal/core"
	"hpcap/internal/fuse"
	"hpcap/internal/metrics"
	"hpcap/internal/server"
)

// engine is the per-site serving state machine — the paper's online
// monitor: fold 1-second counter vectors into the analysis window, decide
// each completed window through the site's session, walk the degradation
// ladder, queue the decision and health events for publication. It is the
// only implementation: Pipeline applies samples to one engine in place,
// ShardedPipeline runs one per shard goroutine, and all access goes
// through the owning lane's shard.emu.
//
// The engine lays its sites out densely: fixed-size site records, one flat
// window-sum arena indexed [site][tier][dim], and sessions touched only at
// decision time. A fleet iterated in registration order then streams
// through the hardware prefetcher instead of chasing pointers through a
// 100k-entry map, which is where the single-core ingest rate comes from.
//
// What pins the transitions: the committed decision and replay goldens,
// TestStreamingMatchesBatch (against core's batch session replay),
// and TestShardedMatchesPipeline (sample-at-a-time against batched,
// deferred and routed application at several shard geometries).
type engine struct {
	// mon is the base monitor; new sites decide through it, and a
	// hot-swapped site through its own session's monitor.
	mon       *core.Monitor
	dim       int
	window    int
	staleness int
	recover   int

	idx   map[string]int32 // site name -> dense index
	recs  []siteRec
	stats []SiteStats
	sess  []*core.Session
	flags []*siteFlags // pointer-stable: admission valves hold them across slice growth
	sums  []float64    // window accumulation arena, [site][tier][dim]

	// Counter fusion (nil/empty unless Config.Fuse was set): per-tier
	// fusers laid out [site][tier], the resolved confidence floor (the raw
	// config may carry zero meaning "default"), and the open window's
	// confidence accumulators, consumed at decision time.
	fuseCfg   *fuse.Config
	fuseFloor float64
	fusers    []*fuse.Fuser
	confSum   []float64
	confN     []int32

	// due holds the batch's deferred clean-window decisions; pubs the
	// decisions and health events awaiting publication outside all locks.
	due  []dueWin
	pubs []pub

	// Decision-path scratch, reused across batches: the single-decision
	// prediction, and the batched DecideAll's parallel slices (positions
	// into due, sessions, observations, predictions). All owned by the
	// lane (touched only under shard.emu), so engine-level reuse is
	// race-free.
	pred  core.Prediction
	batch core.DecideBatch
	bpos  []int
	bsess []*core.Session
	bobs  []core.Observation
	bout  []core.Prediction
}

// siteRec is the dense hot state of one site: everything the per-sample
// path touches, in two cache lines.
type siteRec struct {
	started     bool
	pendSet     [server.NumTiers]bool
	cleanStreak int
	cur         int64 // current window index
	lastTime    [server.NumTiers]float64
	count       [server.NumTiers]int32 // samples in the open window, per tier
	pendTime    [server.NumTiers]float64
	pendVals    [server.NumTiers][]float64 // emitted tier means awaiting the full window
}

// siteFlags is the lock-free face of one site (admission valve reads).
// Allocated once per site so valves survive dense-slice growth.
type siteFlags struct {
	overloaded atomic.Bool
	health     atomic.Int32
}

// dueWin is one clean window awaiting its deferred decision.
type dueWin struct {
	idx  int32
	seq  int64
	vecs [server.NumTiers]metrics.Sample
}

// pub is one decision or health event queued for publication after the
// shard lock is released, in generation order.
type pub struct {
	idx     int32
	isEvent bool
	d       *Decision
	ev      HealthEvent
}

// nonFinite reports math.IsNaN(v) || math.IsInf(v, 0) with one integer
// test: a float64 is NaN or ±Inf exactly when its exponent bits are all
// ones. The per-sample value scan is the hottest loop in the engine, and
// the single mask-and-compare replaces three float compares per element.
func nonFinite(v float64) bool {
	const expMask = 0x7FF0000000000000
	return math.Float64bits(v)&expMask == expMask
}

// maxWindowIndex caps the absolute window index: beyond it the int64
// conversion of the float quotient would overflow into
// implementation-defined territory. A stream can only reach it with an
// absurd (but finite) timestamp, which then just reads as a gigantic gap.
const maxWindowIndex = int64(1) << 60

// windowIndex maps a sample time to its absolute window: index w covers
// times in (w·W, (w+1)·W], matching the batch aggregation, whose windows
// end on multiples of W. Callers have already rejected non-finite times.
func windowIndex(t float64, window int) int64 {
	w := math.Ceil(t / float64(window))
	if !(w > 1) {
		return 0
	}
	if w >= float64(maxWindowIndex) {
		return maxWindowIndex
	}
	return int64(w) - 1
}

func newEngine(m *core.Monitor, cfg Config, dim int) *engine {
	e := &engine{
		mon:       m,
		dim:       dim,
		window:    cfg.Window,
		staleness: cfg.StalenessBudget,
		recover:   cfg.RecoverWindows,
		idx:       make(map[string]int32),
		fuseCfg:   cfg.Fuse,
	}
	if cfg.Fuse != nil {
		// Resolve the config's zero fields through one prototype fuser;
		// lanes.configure validated the config before any engine is built.
		proto, err := fuse.New(*cfg.Fuse, dim)
		if err != nil {
			panic(err)
		}
		e.fuseFloor = proto.Config().ConfidenceFloor
	}
	return e
}

// site returns the dense index for a site name, creating the site on
// first use. Callers hold shard.emu.
func (e *engine) site(name string) int32 {
	if i, ok := e.idx[name]; ok {
		return i
	}
	i := int32(len(e.recs))
	e.idx[name] = i
	e.recs = append(e.recs, siteRec{})
	e.sess = append(e.sess, e.mon.NewSession())
	e.flags = append(e.flags, &siteFlags{})
	e.sums = append(e.sums, make([]float64, int(server.NumTiers)*e.dim)...)
	if e.fuseCfg != nil {
		for tier := server.TierID(0); tier < server.NumTiers; tier++ {
			f, err := fuse.New(*e.fuseCfg, e.dim)
			if err != nil {
				// Validated when the pipeline was built; this cannot happen.
				panic(err)
			}
			e.fusers = append(e.fusers, f)
		}
		e.confSum = append(e.confSum, 0)
		e.confN = append(e.confN, 0)
	}
	var ss SiteStats
	ss.Site = name
	ss.LastSwapSeq = -1
	ss.LastDecisionSeq = -1
	e.stats = append(e.stats, ss)
	return i
}

// takePubs drains the queued publications.
func (e *engine) takePubs() []pub {
	out := e.pubs
	e.pubs = nil
	return out
}

// processBatch applies one drained batch and flushes its due windows.
// Unresolvable refs are counted on the shard; everything else lands on
// site counters — ingest never rejects the stream.
func (e *engine) processBatch(batch []qsample, sh *shard) []pub {
	for k := range batch {
		q := &batch[k]
		var i int32
		if q.idx > 0 {
			if int(q.idx) > len(e.recs) {
				sh.badRefs.Add(1)
				continue
			}
			i = q.idx - 1
		} else {
			i = e.site(q.site)
		}
		if q.fused {
			e.ingestSite(i, q)
		} else {
			e.ingestOne(i, q)
		}
	}
	e.decideAll()
	return e.takePubs()
}

// ingestSite applies one fused site scrape — one sample per tier, all
// sharing a timestamp — exactly as NumTiers sequential ingestOne calls in
// tier order, with the per-sample prolog (time check, window index)
// computed once. Equivalence with the sequential path is pinned by
// TestBatcherAddSite.
func (e *engine) ingestSite(i int32, q *qsample) {
	timeBad := nonFinite(q.time)
	var wi int64
	if !timeBad {
		wi = windowIndex(q.time, e.window)
	}
	for tier := server.TierID(0); tier < server.NumTiers; tier++ {
		if len(e.due) != 0 {
			e.flushDueFor(i)
		}
		e.ingestVec(i, tier, q.time, wi, timeBad, q.vecs[tier])
	}
}

// ingestOne applies one sample. A clean window completion is deferred to
// the due list instead of decided on the spot — flushed by the site's next
// sample (the per-site barrier that keeps decision order that of
// sample-at-a-time application) or by decideAll at batch end, whichever
// comes first.
func (e *engine) ingestOne(i int32, q *qsample) {
	if len(e.due) != 0 {
		e.flushDueFor(i)
	}
	if q.tier < 0 || q.tier >= server.NumTiers {
		ss := &e.stats[i]
		ss.SamplesIngested++
		ss.SamplesBadShape++
		return
	}
	timeBad := nonFinite(q.time)
	var wi int64
	if !timeBad {
		wi = windowIndex(q.time, e.window)
	}
	e.ingestVec(i, q.tier, q.time, wi, timeBad, q.values)
}

// ingestVec is the per-tier core of ingestOne with the sample prolog
// hoisted: the caller has already run the due-window barrier, validated
// the tier, and computed the time check and window index (wi is only
// meaningful when timeBad is false; windowIndex of a non-finite time is
// never taken). Both entry points — single samples and fused site
// scrapes — funnel here so the windowing arithmetic exists once.
func (e *engine) ingestVec(i int32, tier server.TierID, t float64, wi int64, timeBad bool, values []float64) {
	st, ss := &e.recs[i], &e.stats[i]
	ss.SamplesIngested++
	if len(values) != e.dim {
		ss.SamplesBadShape++
		return
	}
	if timeBad {
		ss.SamplesBadValue++
		return
	}
	if e.fuseCfg == nil {
		// Without fusion a NaN/Inf component voids the sample. The fusion
		// stage instead accepts it and imputes the bad components, so the
		// scan is skipped: losing a whole vector to one wrapped counter is
		// exactly the noise the fuser exists to absorb.
		for _, v := range values {
			if nonFinite(v) {
				ss.SamplesBadValue++
				return
			}
		}
	}

	if !st.started {
		st.started = true
		st.cur = wi
	}
	if wi > st.cur {
		e.closeCurrent(i)
		// Windows the stream skipped entirely are dropped unseen.
		if gap := wi - st.cur - 1; gap > 0 {
			ss.WindowsDropped += uint64(gap)
			e.resetSession(i)
		}
		st.cur = wi
	} else if wi < st.cur {
		ss.SamplesLate++
		return
	}
	if t <= st.lastTime[tier] || st.pendSet[tier] {
		// Duplicate or rewound timestamp, or a tier sending more than
		// Window samples into one window.
		ss.SamplesLate++
		return
	}
	st.lastTime[tier] = t
	if e.fuseCfg != nil {
		// Fuse after the late/dup checks so rejected samples never mutate
		// filter state; the window sum reads the fuser-owned buffer before
		// the next Fuse call overwrites it.
		r := e.fusers[int(i)*int(server.NumTiers)+int(tier)].Fuse(values)
		ss.SamplesFused++
		ss.FuseImputed += uint64(r.Imputed)
		ss.FuseGated += uint64(r.Gated)
		e.confSum[i] += r.Confidence
		e.confN[i]++
		values = r.Values
	}
	base := (int(i)*int(server.NumTiers) + int(tier)) * e.dim
	sum := e.sums[base : base+e.dim : base+e.dim]
	for k, v := range values {
		sum[k] += v
	}
	st.count[tier]++
	if int(st.count[tier]) < e.window {
		return
	}
	// Tier window complete: emit the mean into fresh storage (decisions
	// own their vectors), the same arithmetic as metrics.Aggregator.emit.
	vals := make([]float64, e.dim)
	n := float64(st.count[tier])
	for k := range sum {
		vals[k] = sum[k] / n
		sum[k] = 0
	}
	st.count[tier] = 0
	st.pendVals[tier] = vals
	st.pendTime[tier] = t
	st.pendSet[tier] = true
	for tier := server.TierID(0); tier < server.NumTiers; tier++ {
		if !st.pendSet[tier] {
			return
		}
	}
	// Clean window: every tier delivered all its samples.
	var vecs [server.NumTiers]metrics.Sample
	for tier := server.TierID(0); tier < server.NumTiers; tier++ {
		vecs[tier] = metrics.Sample{Time: st.pendTime[tier], Values: st.pendVals[tier]}
		st.pendVals[tier] = nil
		st.pendTime[tier] = 0
		st.pendSet[tier] = false
	}
	seq := st.cur
	st.cur++
	e.due = append(e.due, dueWin{idx: i, seq: seq, vecs: vecs})
}

// flushDueFor decides a queued due window for one site before its next
// sample mutates the site — the barrier that keeps per-site decision and
// session-history order identical to sample-at-a-time application. The due
// list only ever holds sites that completed a window in the current batch,
// so the scan is short and allocation-free.
func (e *engine) flushDueFor(i int32) {
	for k := range e.due {
		if e.due[k].idx == i {
			d := e.due[k]
			e.due[k] = dueWin{idx: -1}
			e.decide(i, d.vecs, 0, d.seq)
			return
		}
	}
}

// decideAll flushes the batch's remaining due windows in completion
// order — the batched per-shard decision path. Two or more live entries
// decide through core.DecideAll's single synopsis-major pass over the
// scoring tables, amortizing table walks across the whole shard; results
// are then published in due order, with any site hot-swapped onto a
// different monitor decided inline at its position. Per-site outputs are
// identical either way; only the predictor-latency attribution changes
// (the batch's wall time divided evenly across its decisions).
func (e *engine) decideAll() {
	e.bpos = e.bpos[:0]
	nb := 0
	for k := range e.due {
		d := &e.due[k]
		if d.idx >= 0 && e.sess[d.idx].Monitor() == e.mon {
			e.bpos = append(e.bpos, nb)
			nb++
		} else {
			e.bpos = append(e.bpos, -1)
		}
	}
	if nb < 2 {
		for k := range e.due {
			d := e.due[k]
			if d.idx >= 0 {
				e.decide(d.idx, d.vecs, 0, d.seq)
			}
		}
	} else {
		if cap(e.bsess) < nb {
			e.bsess = make([]*core.Session, nb)
			e.bobs = make([]core.Observation, nb)
			e.bout = make([]core.Prediction, nb)
		}
		bsess, bobs, bout := e.bsess[:nb], e.bobs[:nb], e.bout[:nb]
		for k, pos := range e.bpos {
			if pos < 0 {
				continue
			}
			d := &e.due[k]
			bsess[pos] = e.sess[d.idx]
			bobs[pos] = assembleObs(&d.vecs)
		}
		start := time.Now()
		e.mon.DecideAll(&e.batch, bsess, bobs, bout)
		share := uint64(time.Since(start)) / uint64(nb)
		for k, pos := range e.bpos {
			d := e.due[k]
			if d.idx < 0 {
				continue
			}
			if pos < 0 {
				e.decide(d.idx, d.vecs, 0, d.seq)
				continue
			}
			e.finishDecide(d.idx, bobs[pos], 0, d.seq, e.batch.Err(pos), &bout[pos], share)
		}
		for i := range bobs {
			bsess[i] = nil
			bobs[i] = core.Observation{}
		}
	}
	for k := range e.due {
		e.due[k] = dueWin{}
	}
	e.due = e.due[:0]
}

// closeCurrent force-closes the site's in-progress window: tiers that
// completed contribute their full mean, the rest are flushed to a partial
// mean. Inside the staleness budget the window is decided degraded; beyond
// it the window is dropped and the temporal history reset. Decides on the
// spot (never deferred) because the caller mutates the site immediately
// after.
func (e *engine) closeCurrent(i int32) {
	st, ss := &e.recs[i], &e.stats[i]
	missing, worst, held := 0, 0, 0
	var vecs [server.NumTiers]metrics.Sample
	for tier := server.TierID(0); tier < server.NumTiers; tier++ {
		if st.pendSet[tier] {
			vecs[tier] = metrics.Sample{Time: st.pendTime[tier], Values: st.pendVals[tier]}
			st.pendVals[tier] = nil
			st.pendTime[tier] = 0
			st.pendSet[tier] = false
			held += e.window
			continue
		}
		n := int(st.count[tier])
		if n > 0 {
			base := (int(i)*int(server.NumTiers) + int(tier)) * e.dim
			sum := e.sums[base : base+e.dim : base+e.dim]
			vals := make([]float64, e.dim)
			for k := range sum {
				vals[k] = sum[k] / float64(n)
				sum[k] = 0
			}
			vecs[tier] = metrics.Sample{Time: st.lastTime[tier], Values: vals}
			st.count[tier] = 0
		}
		held += n
		miss := e.window - n
		missing += miss
		if miss > worst {
			worst = miss
		}
	}
	if worst == 0 {
		// All tiers complete; the closing sample arrived exactly at the
		// next boundary.
		e.decide(i, vecs, 0, st.cur)
		return
	}
	if worst > e.staleness {
		ss.WindowsDropped++
		// The samples the dropped window had absorbed never reach a
		// decision; account for them so ingested = decided + skipped.
		ss.SamplesGapReset += uint64(held)
		// The stream went stale: clear the temporal history as the
		// paper prescribes after long gaps.
		e.resetSession(i)
		return
	}
	e.decide(i, vecs, missing, st.cur)
}

// resetSession clears a site's temporal history after a stream gap and
// fails the admission valve open: with no fresh decision, the site must
// not keep shedding load on a stale overload verdict. The site drops to
// the bottom of the degradation ladder.
func (e *engine) resetSession(i int32) {
	st, ss := &e.recs[i], &e.stats[i]
	e.sess[i].ResetHistory()
	ss.SessionResets++
	e.flags[i].overloaded.Store(false)
	st.cleanStreak = 0
	if e.fuseCfg != nil {
		for tier := server.TierID(0); tier < server.NumTiers; tier++ {
			e.fusers[int(i)*int(server.NumTiers)+int(tier)].Reset()
		}
		e.confSum[i], e.confN[i] = 0, 0
	}
	e.setHealth(i, HealthStale, st.cur)
}

// setHealth moves the site to a new degradation state, counting the edge
// and queueing the event for publication outside the lane lock. A
// same-state call is a no-op.
func (e *engine) setHealth(i int32, to Health, seq int64) {
	ss := &e.stats[i]
	from := ss.Health
	if from == to {
		return
	}
	ss.HealthTransitions[from][to]++
	ss.Health = to
	e.flags[i].health.Store(int32(to))
	e.pubs = append(e.pubs, pub{idx: i, isEvent: true,
		ev: HealthEvent{Site: ss.Site, From: from, To: to, Seq: seq}})
}

// assembleObs builds one observation from a due window's tier samples:
// the tier vectors plus the latest tier timestamp.
func assembleObs(vecs *[server.NumTiers]metrics.Sample) core.Observation {
	obs := core.Observation{}
	for tier := server.TierID(0); tier < server.NumTiers; tier++ {
		obs.Vectors[tier] = vecs[tier].Values
		if vecs[tier].Time > obs.Time {
			obs.Time = vecs[tier].Time
		}
	}
	return obs
}

// decide predicts one assembled window (absolute index seq) of a single
// site through its session, into the engine's reused prediction scratch.
func (e *engine) decide(i int32, vecs [server.NumTiers]metrics.Sample, missing int, seq int64) {
	obs := assembleObs(&vecs)
	start := time.Now()
	err := e.sess[i].PredictInto(obs, &e.pred)
	lat := uint64(time.Since(start))
	e.finishDecide(i, obs, missing, seq, err, &e.pred, lat)
}

// finishDecide is the decision epilog shared by the single and batched
// paths: latency and health accounting, then queueing the decision for
// publication. pred is caller scratch — the published Decision gets its
// own GPV copy. The decision pub is inserted ahead of the health events
// its own outcome generated: subscribers see a decision first, then the
// transitions it caused.
func (e *engine) finishDecide(i int32, obs core.Observation, missing int, seq int64, err error, pred *core.Prediction, lat uint64) {
	st, ss := &e.recs[i], &e.stats[i]
	// Consume the window's fusion-confidence accumulator up front so even
	// a prediction error leaves the next window a clean slate; the
	// due-window barrier (flushDueFor before every ingest) guarantees no
	// later sample has touched it.
	conf, lowConf := 1.0, false
	if e.fuseCfg != nil {
		if e.confN[i] > 0 {
			conf = e.confSum[i] / float64(e.confN[i])
		}
		e.confSum[i], e.confN[i] = 0, 0
		lowConf = conf < e.fuseFloor
	}
	ss.PredictNanos += lat
	if lat > ss.PredictMaxNanos {
		ss.PredictMaxNanos = lat
	}
	if err != nil {
		ss.PredictErrors++
		return
	}
	ss.WindowsDecided++
	if e.fuseCfg != nil {
		ss.FuseConfidence = conf
	}
	if lowConf {
		ss.WindowsLowConfidence++
	}
	mark := len(e.pubs)
	if missing > 0 || lowConf {
		if missing > 0 {
			ss.WindowsDegraded++
		}
		st.cleanStreak = 0
		e.setHealth(i, HealthDegraded, seq)
	} else {
		st.cleanStreak++
		if ss.Health != HealthHealthy && st.cleanStreak >= e.recover {
			e.setHealth(i, HealthHealthy, seq)
		}
	}
	if pred.Overload {
		ss.Overloads++
	}
	for _, bit := range pred.GPV {
		if bit != pred.GPV[0] {
			ss.GPVDisagreements++
			break
		}
	}
	e.flags[i].overloaded.Store(pred.Overload)
	ss.LastDecisionSeq = seq
	ss.LastDecisionTime = obs.Time
	d := &Decision{
		Site: ss.Site,
		Seq:  seq,
		Time: obs.Time,
		Prediction: core.Prediction{
			Overload:   pred.Overload,
			Bottleneck: pred.Bottleneck,
			GPV:        append([]int(nil), pred.GPV...),
		},
		Degraded:      missing > 0,
		Missing:       missing,
		Vectors:       obs.Vectors,
		ModelVersion:  ss.ModelVersion,
		Confidence:    conf,
		LowConfidence: lowConf,
	}
	e.pubs = append(e.pubs, pub{})
	copy(e.pubs[mark+1:], e.pubs[mark:])
	e.pubs[mark] = pub{idx: i, d: d}
}

// flushAll force-closes every open window (end of stream). Due windows
// never persist past a batch, so only the half-aggregated state needs
// closing. Publication is in site-name order, not creation order; the
// sort is stable, so each site's decision stays ahead of the health
// events it caused.
func (e *engine) flushAll() []pub {
	for i := range e.recs {
		st := &e.recs[i]
		open := false
		for tier := server.TierID(0); tier < server.NumTiers; tier++ {
			if st.count[tier] > 0 || st.pendSet[tier] {
				open = true
			}
		}
		if st.started && open {
			e.closeCurrent(int32(i))
			st.cur++
		}
	}
	pubs := e.takePubs()
	sort.SliceStable(pubs, func(a, b int) bool {
		return e.stats[pubs[a].idx].Site < e.stats[pubs[b].idx].Site
	})
	return pubs
}
