package main

import (
	"fmt"
	"time"

	"hpcap/internal/baseline"
	"hpcap/internal/chaos"
	"hpcap/internal/fuse"
	"hpcap/internal/metrics"
	"hpcap/internal/pi"
	"hpcap/internal/serve"
	"hpcap/internal/server"
	"hpcap/internal/simsite"
	"hpcap/internal/tpcw"
)

const (
	liveSites = 32
	// liveSimPerSecond converts the run length into simulated seconds: on
	// the sizing machine 32 sites advance about 140 simulated seconds per
	// wall second, and the work must not depend on the wall clock or the
	// accuracy figures would not repeat.
	liveSimPerSecond = 90
	liveSegSeconds   = 30
)

// liveRun is the paper's own loop: simulated sites advanced in lockstep,
// their counters collected, faulted, fused and decided by the unsharded
// pipeline, with every window scored against the application's health.
type liveRun struct {
	env     *env
	o       opts
	seconds int // simulated seconds, whole windows
	sites   []*simsite.Site
	inj     *chaos.Injector
	pipe    *serve.Pipeline
	sink    *sink

	roundStart time.Time
	lat        [][]int64 // per window: closing round's start → OnDecision
	preds      [][]int   // per site, per window: 1 overload, 0 not, -1 undecided
	index      map[string]int
}

// liveStorm scripts a short fault storm inside a run of d simulated
// seconds. The drop burst is no longer than the staleness budget, so it
// degrades its window without losing the decision.
func liveStorm(d int) string {
	return fmt.Sprintf("nan at=%d for=%d p=0.3; stuck tier=db at=%d for=%d; drop tier=app at=%d for=5 p=0.5",
		d/5, max(d/20, 5), d/2, max(d/40, 5), d*7/10)
}

func prepareLive(e *env, o opts) (runner, error) {
	r := &liveRun{env: e, o: o, index: make(map[string]int)}
	n := liveSites
	if o.tiny {
		n = 4
	}
	r.seconds = max(int(o.seconds*liveSimPerSecond)/window, 3) * window
	wb, err := e.lab.Workload(tpcw.Browsing())
	if err != nil {
		return nil, err
	}
	wo, err := e.lab.Workload(tpcw.Ordering())
	if err != nil {
		return nil, err
	}
	storm, err := chaos.Parse(liveStorm(r.seconds))
	if err != nil {
		return nil, err
	}
	r.inj = chaos.NewInjector(storm, e.seed)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("site-%02d", i)
		s, err := simsite.New(name, e.lab.Server, metrics.LevelHPC, i, wb, wo, e.seed, float64(r.seconds))
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", name, err)
		}
		s.WrapCollectors(func(c metrics.Collector) metrics.Collector {
			return metrics.NewRetryCollector(chaos.NewFlakyCollector(c, storm), 2)
		})
		if err := s.TB.Start(); err != nil {
			return nil, err
		}
		r.index[name] = i
		r.sites = append(r.sites, s)
	}
	windows := r.seconds / window
	r.sink = &sink{common: int64(windows)}
	r.lat = make([][]int64, windows)
	r.preds = make([][]int, n)
	for i := range r.preds {
		r.preds[i] = make([]int, windows)
		for k := range r.preds[i] {
			r.preds[i][k] = -1
		}
	}
	fc := fuse.DefaultConfig()
	r.pipe, err = serve.NewPipeline(e.monitor, serve.Config{Fuse: &fc, OnDecision: r.onDecision})
	return r, err
}

// onDecision runs inside Pipeline.Ingest, on the loop's own goroutine.
func (r *liveRun) onDecision(d serve.Decision) {
	r.sink.onDecision(d)
	if d.Seq < 0 || d.Seq >= int64(len(r.lat)) {
		return
	}
	r.lat[d.Seq] = append(r.lat[d.Seq], time.Since(r.roundStart).Nanoseconds())
	p := 0
	if d.Prediction.Overload {
		p = 1
	}
	r.preds[r.index[d.Site]][d.Seq] = p
}

func (r *liveRun) close() {}

// health accumulates one window of application-level health, the
// labeler's input.
type health struct {
	arrivals, completions int
	rtSum                 float64
}

func (r *liveRun) run(tr *tracer) (*outcome, error) {
	n, w := len(r.sites), window
	dim := len(r.env.clean[0][0])
	root := tr.start("live-fleet", 0, 0)
	var (
		peak     rssPeak
		labeler  pi.Labeler
		acc      = make([]health, n)
		truth    = make([][]int, n)
		captured []serve.Sample // what the pipeline was given, in order
		clean    = make([]scrape, 0, r.seconds)
		faulty   = make([]scrape, 0, r.seconds)
		segS     []float64
		before   procSnap
		segStart = time.Now()
		segID    = tr.start("segment", root, 0)
	)
	for sec := 1; sec <= r.seconds; sec++ {
		r.roundStart = time.Now()
		round := tr.start("round", segID, sec)
		for i, s := range r.sites {
			// Per-call spans follow one site in eight, rotating.
			tr := tr
			if (i+sec)%8 != 0 {
				tr = nil
			}
			id := tr.start("server.RunInterval", round, sec)
			snap := s.TB.RunInterval(1)
			tr.end(id)
			acc[i].arrivals += snap.Arrivals
			acc[i].completions += snap.Completions
			acc[i].rtSum += snap.MeanRT * float64(snap.Completions)
			var pre, post scrape
			for tier := server.TierID(0); tier < server.NumTiers; tier++ {
				id = tr.start("cpu.Collect", round, sec)
				pre[tier] = s.Collect(tier, snap)
				tr.end(id)
				post[tier] = pre[tier]
				id = tr.start("chaos.Apply", round, sec)
				outs := r.inj.Apply(serve.Sample{Site: s.Name, Tier: tier, Time: snap.Time, Values: pre[tier]})
				tr.end(id)
				for _, o := range outs {
					post[tier] = o.Values
					captured = append(captured, o)
					id = tr.start("serve.Ingest", round, sec)
					r.pipe.Ingest(o)
					tr.end(id)
				}
			}
			if i == 0 {
				clean, faulty = append(clean, pre), append(faulty, post)
			}
			if sec%w == 0 {
				h := acc[i]
				meanRT := ratio(h.rtSum, float64(h.completions))
				truth[i] = append(truth[i], labeler.Label(metrics.Sample{
					MeanRT:      meanRT,
					Throughput:  float64(h.completions) / float64(w),
					ArrivalRate: float64(h.arrivals) / float64(w),
				}))
				acc[i] = health{}
			}
		}
		tr.end(round)
		if sec%liveSegSeconds == 0 {
			tr.end(segID)
			segS = append(segS, time.Since(segStart).Seconds())
			if len(segS) == 1 {
				before = snapProc()
			}
			peak.poll()
			segStart = time.Now()
			segID = tr.start("segment", root, len(segS))
		}
	}
	tr.end(segID)
	after := snapProc()
	r.pipe.Flush()
	tr.end(root)
	if len(segS) > 1 {
		segS = segS[1:] // the first segment warms up and is discarded
	}

	// The ledger replays one minute of site 0 that covers the NaN burst.
	from := min(r.seconds/5, r.seconds-recordSeconds)
	out := newOutcome(clean[from:from+recordSeconds], faulty[from:from+recordSeconds], true, 4)
	// The first four sites — both mixes, every cruise rotation — through
	// their first cruise, burst and recovery.
	out.simSeconds = min(r.seconds, 300)
	e, duration := r.env, float64(r.seconds) // not r: the replay must not keep this run's sites alive
	out.sim = func(dag bool) ([]simsite.Testbed, error) {
		wb, _ := e.lab.Workload(tpcw.Browsing()) // measured in set-up
		wo, _ := e.lab.Workload(tpcw.Ordering())
		var tbs []simsite.Testbed
		for i := 0; i < min(n, 4); i++ {
			var s *simsite.Site
			var err error
			if dag {
				s, err = simsite.NewDAG("replay", server.TwoTierTopology(e.lab.Server), metrics.LevelHPC, i, wb, wo, e.seed, duration)
			} else {
				s, err = simsite.New("replay", e.lab.Server, metrics.LevelHPC, i, wb, wo, e.seed, duration)
			}
			if err != nil {
				return nil, err
			}
			tbs = append(tbs, s.TB)
		}
		return tbs, nil
	}
	out.path = []term{
		{"server.run_interval_us", 1000 * perScrape}, {"cpu.collect_ns", 1}, {"chaos.inject_ns", 1},
		{"fuse.clean_ns", 1}, {"metrics.push_ns", 1}, {"core.decide_ns", perWindow},
	}
	rates := make([]float64, len(segS))
	for i, s := range segS {
		rates[i] = float64(n*liveSegSeconds) / s
	}
	siteRate := quietRate(rates)
	measured := float64(n * (r.seconds - liveSegSeconds) * tiers)
	out.samplesPerS = siteRate * float64(tiers)
	out.allocsPerSample = ratio(float64(after.mallocs-before.mallocs), measured)
	out.cpuNsPerSample = ratio((after.cpu-before.cpu)*1e9, measured)
	out.peakRSSMiB = peak.mib()
	var p50s, p99s []float64
	for _, lat := range r.lat {
		if asc := sorted(nsToFloat(lat)); len(asc) > 0 {
			p50s = append(p50s, quantile(asc, 0.5)/1e6)
			p99s = append(p99s, quantile(asc, 0.99)/1e6)
		}
	}
	out.latP50Ms, out.layer["serve.decision_lat_p99_ms"] = quietLatency(p50s), quietLatency(p99s)

	// Output checks: decisions against expectation, samples against the
	// injector's and the pipeline's own counts, and the verdicts against
	// the same samples through the sharded engine.
	windows := r.seconds / w
	out.expect("live", int64(n*windows), r.sink.count.Load())
	stats := r.pipe.Stats()
	var ingested uint64
	for i := range stats {
		ingested += stats[i].SamplesIngested
	}
	cs := r.inj.Stats()
	out.check(cs.Offered == uint64(n*r.seconds*tiers), "injector saw %d samples of %d collected", cs.Offered, n*r.seconds*tiers)
	out.check(cs.Emitted == uint64(len(captured)) && ingested == cs.Emitted, "injector emitted %d samples, %d captured, %d ingested", cs.Emitted, len(captured), ingested)
	twin := &sink{common: int64(windows)}
	fc := fuse.DefaultConfig()
	sp, err := serve.NewShardedPipeline(r.env.monitor, serve.Config{Fuse: &fc, OnDecision: twin.onDecision}, serve.ShardConfig{Shards: fleetShards})
	if err != nil {
		return nil, err
	}
	for _, s := range captured {
		sp.Ingest(s)
	}
	sp.Flush()
	sp.Close()
	out.check(twin.digest.Load() == r.sink.digest.Load() && twin.count.Load() == r.sink.count.Load(),
		"unsharded digest %016x (%d decisions) != sharded digest %016x (%d)",
		r.sink.digest.Load(), r.sink.count.Load(), twin.digest.Load(), twin.count.Load())

	// Score the verdicts. An undecided window counts as "not overloaded".
	var tp, fn, tn, fp, lagSum, onsets float64
	for i := range r.preds {
		preds := make([]int, windows)
		for k, p := range r.preds[i] {
			preds[k] = max(p, 0)
			switch {
			case truth[i][k] == 1 && preds[k] == 1:
				tp++
			case truth[i][k] == 1:
				fn++
			case preds[k] == 1:
				fp++
			default:
				tn++
			}
		}
		lag, k := baseline.DetectionLag(truth[i], preds)
		lagSum += lag * float64(k)
		onsets += float64(k)
	}
	ba := (ratio(tp, tp+fn) + ratio(tn, tn+fp)) / 2
	out.check(r.o.tiny || ba > 0.5, "balanced accuracy %.3f is no better than chance", ba)

	siteRows(out.layer, stats, dim)
	zero(out.layer, shardRowNames...)
	zero(out.layer, netRowNames...)
	zero(out.layer, genRowNames...)
	procRows(out.layer, before, after)
	out.layer["sim.site_s_per_s"] = siteRate
	out.layer["baseline.detect_lag_s"] = ratio(lagSum, onsets) * float64(w)
	out.layer["pi.balanced_accuracy"] = ba
	return out, nil
}
