package serve_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpcap/internal/core"
	"hpcap/internal/fuse"
	"hpcap/internal/serve"
	"hpcap/internal/server"
)

// geometry is one shard layout: shards, samples per batch, and samples a
// shard's queue holds (rounded down to whole batches, at least one).
type geometry struct{ shards, batch, queue int }

// newSharded builds a sharded pipeline at the geometry g.
func newSharded(t testing.TB, mon *core.Monitor, cfg serve.Config, g geometry) *serve.ShardedPipeline {
	t.Helper()
	sp, err := serve.NewShardedGeometry(mon, cfg, g.shards, g.batch, max(1, g.queue/g.batch))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// shardConfigs is the matrix the differential tests sweep: degenerate
// single-shard single-sample batches, awkward non-dividing counts, and
// the pipeline's own batch and queue sizes.
var shardConfigs = []geometry{
	{shards: 1, batch: 1, queue: 1},
	{shards: 3, batch: 7, queue: 21},
	{shards: 8, batch: 64, queue: 4096},
}

// recoveries tallies, across sites, the degraded → healthy and the
// stale → healthy edges of the health ladder.
func recoveries(stats []serve.SiteStats) (fromDegraded, fromStale uint64) {
	for _, st := range stats {
		fromDegraded += st.HealthTransitions[serve.HealthDegraded][serve.HealthHealthy]
		fromStale += st.HealthTransitions[serve.HealthStale][serve.HealthHealthy]
	}
	return fromDegraded, fromStale
}

// scripted says how a storm's site s behaves at second sec, under the
// given window: sites 0 and 1 weather three windows of storm and then
// run calm, without faults. Site 0 loses one whole second of its fourth
// window, which is decided degraded; site 1 loses that window's last ten
// seconds, so the window is dropped and the site goes stale. Each then
// has the clean windows it needs to recover to healthy.
func scripted(s, sec, window int) (calm, drop bool) {
	if s > 1 || sec <= 3*window {
		return false, false
	}
	if s == 0 {
		return true, sec == 3*window+5
	}
	return true, sec > 4*window-10 && sec <= 4*window
}

// outcomes tallies, across sites, the windows decided degraded and the
// windows dropped.
func outcomes(stats []serve.SiteStats) (degraded, dropped uint64) {
	for _, st := range stats {
		degraded += st.WindowsDegraded
		dropped += st.WindowsDropped
	}
	return degraded, dropped
}

// faultEvent is one step of a generated stream program: feed a (possibly
// corrupted) sample, or swap a site's model.
type faultEvent struct {
	swap    bool
	site    int
	version int64
	sample  serve.Sample
}

// faultProgram generates a deterministic stream over nSites sites with
// seeded faults of every malformed-input class the pipeline counts:
// drops (gaps), duplicates, late and skewed timestamps, NaN/Inf values,
// short and nil vectors, bad tiers — plus mid-stream model swaps, over
// eight windows; the sites scripted says are calm recover. The same
// program replays into any pipeline implementation.
func faultProgram(seed int64, nSites, window int, vecs [server.NumTiers][][]float64) []faultEvent {
	rng := rand.New(rand.NewSource(seed))
	seconds := 8 * window
	n := len(vecs[0])
	var prog []faultEvent
	names := make([]string, nSites)
	for i := range names {
		names[i] = fmt.Sprintf("site-%02d", i)
	}
	swapAt := seconds / 2
	dim := len(vecs[0][0])
	for sec := 1; sec <= seconds; sec++ {
		for s := 0; s < nSites; s++ {
			if sec == swapAt {
				prog = append(prog, faultEvent{swap: true, site: s, version: 1})
			}
			for tier := server.TierID(0); tier < server.NumTiers; tier++ {
				base := serve.Sample{
					Site:   names[s],
					Tier:   tier,
					Time:   float64(sec),
					Values: vecs[tier][sec%n],
				}
				mark := len(prog)
				switch roll := rng.Float64(); {
				case roll < 0.04: // drop: the window goes degraded or stale
				case roll < 0.06: // burst gap: drop plus a late echo of an old second
					late := base
					late.Time = float64(rng.Intn(sec) + 1)
					prog = append(prog, faultEvent{site: s, sample: late})
				case roll < 0.08: // duplicate
					prog = append(prog, faultEvent{site: s, sample: base}, faultEvent{site: s, sample: base})
				case roll < 0.10: // NaN component
					v := append([]float64(nil), base.Values...)
					v[rng.Intn(dim)] = math.NaN()
					corrupted := base
					corrupted.Values = v
					prog = append(prog, faultEvent{site: s, sample: corrupted})
				case roll < 0.11: // Inf component
					v := append([]float64(nil), base.Values...)
					v[rng.Intn(dim)] = math.Inf(1 - 2*rng.Intn(2))
					corrupted := base
					corrupted.Values = v
					prog = append(prog, faultEvent{site: s, sample: corrupted})
				case roll < 0.12: // short vector
					short := base
					short.Values = base.Values[:rng.Intn(dim)]
					prog = append(prog, faultEvent{site: s, sample: short})
				case roll < 0.13: // nil vector
					empty := base
					empty.Values = nil
					prog = append(prog, faultEvent{site: s, sample: empty})
				case roll < 0.14: // bad tier
					bad := base
					bad.Tier = server.TierID(rng.Intn(2)*11 - 1)
					prog = append(prog, faultEvent{site: s, sample: bad})
				case roll < 0.15: // NaN/Inf timestamp
					bad := base
					if rng.Intn(2) == 0 {
						bad.Time = math.NaN()
					} else {
						bad.Time = math.Inf(1)
					}
					prog = append(prog, faultEvent{site: s, sample: bad})
				default:
					prog = append(prog, faultEvent{site: s, sample: base})
				}
				// A calm site's draws are made all the same, so the other
				// sites' storms do not depend on the script.
				if calm, drop := scripted(s, sec, window); calm {
					prog = prog[:mark]
					if !drop {
						prog = append(prog, faultEvent{site: s, sample: base})
					}
				}
			}
		}
	}
	return prog
}

// transcriptRecorder accumulates per-site decision and health streams
// from pipeline callbacks (which the sharded pipeline fires from shard
// goroutines, so everything locks).
type transcriptRecorder struct {
	mu        sync.Mutex
	decisions map[string][]serve.Decision
	health    map[string][]serve.HealthEvent
	swaps     []serve.SwapEvent
}

func newRecorder() *transcriptRecorder {
	return &transcriptRecorder{
		decisions: make(map[string][]serve.Decision),
		health:    make(map[string][]serve.HealthEvent),
	}
}

func (r *transcriptRecorder) config(window int) serve.Config {
	return serve.Config{
		Window: window,
		OnDecision: func(d serve.Decision) {
			r.mu.Lock()
			r.decisions[d.Site] = append(r.decisions[d.Site], d)
			r.mu.Unlock()
		},
		OnHealth: func(ev serve.HealthEvent) {
			r.mu.Lock()
			r.health[ev.Site] = append(r.health[ev.Site], ev)
			r.mu.Unlock()
		},
		OnSwap: func(ev serve.SwapEvent) {
			r.mu.Lock()
			r.swaps = append(r.swaps, ev)
			r.mu.Unlock()
		},
	}
}

// transcript renders one site's full observable stream: versioned
// decisions interleaved against the health ladder.
func (r *transcriptRecorder) transcript(site string) string {
	var b strings.Builder
	for _, d := range r.decisions[site] {
		fmt.Fprintf(&b, "v%d %s", d.ModelVersion, formatDecisions([]serve.Decision{d}))
	}
	for _, ev := range r.health[site] {
		fmt.Fprintf(&b, "health %s->%s seq=%d\n", ev.From, ev.To, ev.Seq)
	}
	return b.String()
}

// scrubLatency zeroes the wall-clock prediction-latency counters, the
// only SiteStats fields allowed to differ between implementations.
func scrubLatency(stats []serve.SiteStats) []serve.SiteStats {
	for i := range stats {
		stats[i].PredictNanos = 0
		stats[i].PredictMaxNanos = 0
	}
	return stats
}

// TestShardedMatchesPipeline is the geometry differential. Pipeline and
// ShardedPipeline apply the same engine, so what differs is how samples
// reach it: one at a time on the caller's goroutine, against batched,
// deferred and hash-routed at several shard/batch geometries. Seeded
// fault-storm programs (drops, dups, late/NaN/Inf/misshapen samples,
// gaps, mid-stream hot-swaps, and two sites that recover from degraded
// and from stale) replay through both, with counter fusion off and on,
// and every site's decision stream, health ladder, swap events, and full
// counter snapshot must be identical — batching, deferral, and shard
// routing may never change an outcome.
func TestShardedMatchesPipeline(t *testing.T) {
	lab, mon, tr := fixture(t)
	vecs := secondVectors(tr)
	window := lab.Scale.Window
	const nSites = 6

	for seed := int64(1); seed <= 3; seed++ {
		prog := faultProgram(seed, nSites, window, vecs)
		for _, leg := range []struct {
			suffix string
			fuse   *fuse.Config
		}{{"", nil}, {"/fuse", &fuse.Config{}}} {
			withFuse := func(cfg serve.Config) serve.Config {
				cfg.Fuse = leg.fuse
				return cfg
			}

			ref := newRecorder()
			p, err := serve.NewPipeline(mon, withFuse(ref.config(window)))
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range prog {
				if ev.swap {
					if _, err := p.SwapMonitor(fmt.Sprintf("site-%02d", ev.site), mon, ev.version); err != nil {
						t.Fatal(err)
					}
					continue
				}
				p.Ingest(ev.sample)
			}
			p.Flush()
			refStats := scrubLatency(p.Stats())
			if deg, drop := outcomes(refStats); deg == 0 || drop == 0 {
				t.Errorf("seed %d%s: %d degraded and %d dropped windows; the storm misses a rung of the ladder", seed, leg.suffix, deg, drop)
			}
			if fromDeg, fromStale := recoveries(refStats); fromDeg == 0 || fromStale == 0 {
				t.Errorf("seed %d%s: %d degraded→healthy and %d stale→healthy edges; the storm misses a recovery", seed, leg.suffix, fromDeg, fromStale)
			}

			for _, sc := range shardConfigs {
				t.Run(fmt.Sprintf("seed=%d/shards=%d/batch=%d%s", seed, sc.shards, sc.batch, leg.suffix), func(t *testing.T) {
					rec := newRecorder()
					sp := newSharded(t, mon, withFuse(rec.config(window)), sc)
					defer sp.Close()
					for _, ev := range prog {
						if ev.swap {
							if _, err := sp.SwapMonitor(fmt.Sprintf("site-%02d", ev.site), mon, ev.version); err != nil {
								t.Fatal(err)
							}
							continue
						}
						sp.Ingest(ev.sample)
					}
					sp.Flush()

					for s := 0; s < nSites; s++ {
						site := fmt.Sprintf("site-%02d", s)
						want, got := ref.transcript(site), rec.transcript(site)
						if got != want {
							t.Errorf("%s transcript diverged\n--- inline ---\n%s--- sharded ---\n%s", site, want, got)
						}
					}
					if got := scrubLatency(sp.Stats()); !reflect.DeepEqual(got, refStats) {
						t.Errorf("stats diverged\ninline:  %+v\nsharded: %+v", refStats, got)
					}
					if !reflect.DeepEqual(rec.swaps, ref.swaps) {
						t.Errorf("swap events diverged\ninline:  %+v\nsharded: %+v", ref.swaps, rec.swaps)
					}
					if leg.fuse != nil && refStats[0].SamplesFused == 0 {
						t.Error("fusion leg fused nothing; the differential covered one path twice")
					}
					// Nothing vanished in the queues: every accepted sample was
					// applied, and the per-site tallies absorb all of them.
					tot := sp.Totals()
					if tot.Enqueued != tot.Processed {
						t.Errorf("after Flush: enqueued %d != processed %d", tot.Enqueued, tot.Processed)
					}
					var ingested uint64
					for _, s := range sp.Stats() {
						ingested += s.SamplesIngested
					}
					if ingested != tot.Processed {
						t.Errorf("site counters absorb %d samples, shards processed %d", ingested, tot.Processed)
					}
				})
			}
		}
	}
}

// TestShardRoutingProperty is the quick-style routing law: for seeded
// arbitrary site names and shard counts across 1..256, every site lands
// on exactly one shard, the route is a pure function of the name (stable
// across re-registration and equal to the exported SiteShard), and the
// merged snapshot equals the sum of the per-shard parts.
func TestShardRoutingProperty(t *testing.T) {
	_, mon, tr := fixture(t)
	vecs := secondVectors(tr)

	randomName := func(rng *rand.Rand) string {
		n := 1 + rng.Intn(24)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return string(b)
	}

	for trial := 0; trial < 6; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + trial)))
			shards := []int{1, 2, 256}[trial%3]
			if trial >= 3 {
				shards = 1 + rng.Intn(serve.MaxShards)
			}
			nSites := 20 + rng.Intn(40)
			sites := make(map[string]bool, nSites)
			for len(sites) < nSites {
				sites[randomName(rng)] = true
			}

			sp := newSharded(t, mon, serve.Config{Window: 30}, geometry{shards: shards, batch: 1 + rng.Intn(16), queue: 64})
			defer sp.Close()

			wantPerShard := make([]int, shards)
			refs := make(map[string]serve.SiteRef, nSites)
			for name := range sites {
				home := serve.SiteShard(name, shards)
				if home < 0 || home >= shards {
					t.Fatalf("SiteShard(%q, %d) = %d, outside range", name, shards, home)
				}
				if again := serve.SiteShard(name, shards); again != home {
					t.Fatalf("SiteShard(%q) unstable: %d then %d", name, home, again)
				}
				wantPerShard[home]++
				refs[name] = sp.Register(name)
				if !refs[name].Valid() {
					t.Fatalf("Register(%q) returned invalid ref", name)
				}
				if again := sp.Register(name); again != refs[name] {
					t.Fatalf("re-registering %q moved the ref: %v then %v", name, refs[name], again)
				}
			}

			// Each scrape goes in either tier by tier by name or as one fused
			// slot through the site's ref; the Batcher is flushed at once so
			// the two paths never reorder a site's stream.
			perSite := 1 + rng.Intn(5)
			var offered, slots uint64
			bt := sp.NewBatcher()
			for name := range sites {
				for k := 0; k < perSite; k++ {
					var scrape [server.NumTiers][]float64
					for tier := range scrape {
						scrape[tier] = vecs[tier][k]
					}
					if rng.Intn(2) == 0 {
						for tier := server.TierID(0); tier < server.NumTiers; tier++ {
							sp.Ingest(serve.Sample{Site: name, Tier: tier, Time: float64(k + 1), Values: scrape[tier]})
							slots++
						}
					} else {
						bt.AddSite(refs[name], float64(k+1), scrape)
						bt.Flush()
						slots++
					}
					offered += uint64(server.NumTiers)
				}
			}
			sp.Sync()

			// Each site on exactly one shard, where SiteShard says.
			per := sp.ShardStats()
			if len(per) != shards {
				t.Fatalf("%d shard snapshots, want %d", len(per), shards)
			}
			for k, s := range per {
				if s.Shard != k {
					t.Errorf("snapshot %d labeled shard %d", k, s.Shard)
				}
				if s.Sites != wantPerShard[k] {
					t.Errorf("shard %d holds %d sites, routing law says %d", k, s.Sites, wantPerShard[k])
				}
			}

			// Merged snapshot == sum of parts, with nothing lost or counted
			// twice across shard boundaries.
			tot := sp.Totals()
			var sumSites int
			var sumProcessed, sumEnqueued uint64
			for _, s := range per {
				sumSites += s.Sites
				sumProcessed += s.Processed
				sumEnqueued += s.Enqueued
			}
			if sumSites != nSites || tot.Sites != nSites {
				t.Errorf("sites: per-shard sum %d, totals %d, want %d", sumSites, tot.Sites, nSites)
			}
			if sumEnqueued != slots || sumProcessed != slots {
				t.Errorf("offered %d queue slots: enqueued %d, processed %d", slots, sumEnqueued, sumProcessed)
			}
			if tot.Enqueued != sumEnqueued || tot.Processed != sumProcessed {
				t.Errorf("totals (%d/%d) disagree with per-shard sums (%d/%d)",
					tot.Enqueued, tot.Processed, sumEnqueued, sumProcessed)
			}
			var ingested uint64
			stats := sp.Stats()
			if len(stats) != nSites {
				t.Fatalf("merged snapshot has %d sites, want %d", len(stats), nSites)
			}
			for _, s := range stats {
				ingested += s.SamplesIngested
			}
			if ingested != offered {
				t.Errorf("merged site counters absorb %d samples, offered %d", ingested, offered)
			}
		})
	}
}

// TestShardedRaceStress is the sharded twin of TestChaosRaceStress: eight
// sites fed from eight goroutines across five shards (so shards are both
// shared and crossed), each hot-swapping mid-storm, with a snapshot
// scraper running throughout. Run under -race by the CI race leg. The
// per-site streams must match a sequential unsharded replay exactly.
func TestShardedRaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the trace 16 times; skipped in -short")
	}
	lab, mon, tr := fixture(t)
	vecs := secondVectors(tr)
	window := lab.Scale.Window
	const nSites = 8
	swapAt := len(tr.SecTimes) / 2

	feed := func(ingest func(serve.Sample), swap func(string), site string) {
		for i, ts := range tr.SecTimes {
			if i == swapAt {
				swap(site)
			}
			for tier := server.TierID(0); tier < server.NumTiers; tier++ {
				ingest(serve.Sample{Site: site, Tier: tier, Time: ts, Values: vecs[tier][i]})
			}
		}
	}

	// Sequential reference through the unsharded pipeline.
	ref := newRecorder()
	p, err := serve.NewPipeline(mon, ref.config(window))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nSites; i++ {
		feed(p.Ingest, func(site string) {
			if _, err := p.SwapMonitor(site, mon, 1); err != nil {
				t.Fatalf("%s: swap: %v", site, err)
			}
		}, fmt.Sprintf("site-%d", i))
	}
	p.Flush()
	refStats := scrubLatency(p.Stats())

	// Concurrent run through the sharded pipeline.
	rec := newRecorder()
	sp := newSharded(t, mon, rec.config(window), geometry{shards: 5, batch: 16, queue: 64})
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				sp.Stats()
				sp.ShardStats()
				sp.Overloaded("site-0")
				var sb strings.Builder
				if err := sp.WriteMetrics(&sb); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < nSites; i++ {
		site := fmt.Sprintf("site-%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			feed(sp.Ingest, func(s string) {
				if _, err := sp.SwapMonitor(s, mon, 1); err != nil {
					t.Errorf("%s: swap: %v", s, err)
				}
			}, site)
		}()
	}
	wg.Wait()
	sp.Flush()
	close(stop)
	scraper.Wait()
	sp.Close()

	for i := 0; i < nSites; i++ {
		site := fmt.Sprintf("site-%d", i)
		if want, got := ref.transcript(site), rec.transcript(site); got != want {
			t.Errorf("%s diverged under sharding\n--- sequential ---\n%s--- sharded ---\n%s", site, want, got)
		}
	}
	if got := scrubLatency(sp.Stats()); !reflect.DeepEqual(got, refStats) {
		t.Errorf("stats diverged under sharding\nunsharded: %+v\nsharded:   %+v", refStats, got)
	}
}

// TestShardedSwapQuiesce pins SwapMonitor's stream position: whatever the
// batch and queue geometry, a swap issued after k windows of samples
// takes effect at exactly window k — every earlier decision carries the
// old version, every later one the new — because the swap quiesces the
// owning shard before rebinding the session.
func TestShardedSwapQuiesce(t *testing.T) {
	lab, mon, tr := fixture(t)
	vecs := secondVectors(tr)
	window := lab.Scale.Window
	n := len(tr.SecTimes)
	for _, sc := range shardConfigs {
		t.Run(fmt.Sprintf("shards=%d/batch=%d", sc.shards, sc.batch), func(t *testing.T) {
			rec := newRecorder()
			sp := newSharded(t, mon, rec.config(window), sc)
			defer sp.Close()
			const site = "quiesce"
			const preWindows, postWindows = 2, 2
			sec := 0
			feedWindows := func(k int) {
				for w := 0; w < k; w++ {
					for i := 0; i < window; i++ {
						sec++
						for tier := server.TierID(0); tier < server.NumTiers; tier++ {
							sp.Ingest(serve.Sample{Site: site, Tier: tier, Time: float64(sec), Values: vecs[tier][sec%n]})
						}
					}
				}
			}
			feedWindows(preWindows)
			// No Sync first: the swap itself must drain the queued windows.
			ev, err := sp.SwapMonitor(site, mon, 7)
			if err != nil {
				t.Fatal(err)
			}
			if ev.Seq != preWindows {
				t.Errorf("swap landed at window %d, want %d", ev.Seq, preWindows)
			}
			if ev.PrevVersion != 0 || ev.Version != 7 {
				t.Errorf("swap versions %d->%d, want 0->7", ev.PrevVersion, ev.Version)
			}
			feedWindows(postWindows)
			sp.Flush()
			ds := rec.decisions[site]
			if len(ds) != preWindows+postWindows {
				t.Fatalf("%d decisions, want %d", len(ds), preWindows+postWindows)
			}
			for _, d := range ds {
				want := int64(0)
				if d.Seq >= int64(preWindows) {
					want = 7
				}
				if d.ModelVersion != want {
					t.Errorf("window %d decided by version %d, want %d", d.Seq, d.ModelVersion, want)
				}
			}
			st, ok := sp.SiteStats(site)
			if !ok || st.LastSwapSeq != int64(preWindows) || st.ModelSwaps != 1 {
				t.Errorf("stats after swap: %+v", st)
			}
		})
	}
}

// underWatchdog runs body on its own goroutine and converts a deadlock
// into a crisp failure. body reports through t.Error only.
func underWatchdog(t *testing.T, body func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		body()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("callback re-entrancy deadlocked the pipeline")
	}
}

// TestShardedCallbackReentrancy is the deadlock regression for the
// publish-outside-locks convention: OnDecision and OnHealth both call
// back into the pipeline (snapshots, flag reads, drift notes, even
// further ingest) while their shard goroutine is mid-dispatch.
func TestShardedCallbackReentrancy(t *testing.T) {
	lab, mon, tr := fixture(t)
	vecs := secondVectors(tr)
	window := lab.Scale.Window
	n := len(tr.SecTimes)

	underWatchdog(t, func() {
		// Two shards fire callbacks at once: the counters are atomic.
		var decided, healthEvents atomic.Int64
		var sp *serve.ShardedPipeline
		cfg := serve.Config{
			Window: window,
			OnDecision: func(d serve.Decision) {
				decided.Add(1)
				// Re-enter from inside dispatch: snapshots, flag reads,
				// counters, and one more (non-flushing) sample.
				sp.Stats()
				if _, ok := sp.SiteStats(d.Site); !ok {
					t.Errorf("SiteStats(%s) missing from its own decision callback", d.Site)
				}
				sp.Overloaded(d.Site)
				sp.NoteDrift(d.Site, 1)
				sp.NewBatcher().AddSite(serve.SiteRef{}, 0, [server.NumTiers][]float64{}) // counted, not routed
			},
			OnHealth: func(ev serve.HealthEvent) {
				healthEvents.Add(1)
				sp.ShardStats()
				sp.Totals()
			},
		}
		var err error
		sp, err = serve.NewShardedGeometry(mon, cfg, 2, 4, 2)
		if err != nil {
			t.Error(err)
			return
		}
		// Drive enough windows that decisions, degraded windows, and
		// health transitions all fire (site B drops a tier periodically).
		for sec := 1; sec <= 6*window; sec++ {
			for tier := server.TierID(0); tier < server.NumTiers; tier++ {
				sp.Ingest(serve.Sample{Site: "a", Tier: tier, Time: float64(sec), Values: vecs[tier][sec%n]})
				if tier == 0 && sec%(2*window) < window/2 {
					continue // b's app tier goes missing half a window at a time
				}
				sp.Ingest(serve.Sample{Site: "b", Tier: tier, Time: float64(sec), Values: vecs[tier][sec%n]})
			}
		}
		sp.Flush()
		sp.Close()
		if decided.Load() == 0 {
			t.Error("no decisions fired; the regression exercised nothing")
		}
		if deg, drop := outcomes(sp.Stats()); deg == 0 || drop == 0 {
			t.Errorf("%d degraded and %d dropped windows; b's outages miss a rung of the ladder", deg, drop)
		}
		if healthEvents.Load() == 0 {
			t.Error("no health events fired; the regression exercised nothing")
		}
	})
}

// TestPipelineCallbackReentrancy is the inline front's side of the same
// convention, with nothing held back: a Pipeline has no shard goroutine
// to wait on, so its callbacks may call every method — here Ingest for
// another site (whose own decisions nest a second callback inside the
// first), SwapMonitor, NoteDrift, Stats, AdmissionValve and Flush. A swap
// issued from a decision callback must take effect at the very next
// window.
func TestPipelineCallbackReentrancy(t *testing.T) {
	lab, mon, tr := fixture(t)
	vecs := secondVectors(tr)
	window := lab.Scale.Window
	n := len(tr.SecTimes)
	const windows, swapAfter, flushAfter = 6, 2, 4

	underWatchdog(t, func() {
		var p *serve.Pipeline
		var aDecisions []serve.Decision
		var swap serve.SwapEvent
		var bDecided, healthEvents, bSec int
		cfg := serve.Config{
			Window: window,
			OnDecision: func(d serve.Decision) {
				if d.Site != "a" {
					bDecided++
					return
				}
				aDecisions = append(aDecisions, d)
				p.Stats()
				p.NoteDrift(d.Site, 1)
				p.AdmissionValve("b", 2)(server.AdmissionState{})
				// One window of site b per decision of a, its app tier two
				// samples short (degraded: b walks the health ladder).
				for k := 0; k < window; k++ {
					bSec++
					for tier := server.TierID(0); tier < server.NumTiers; tier++ {
						if tier == 0 && k < 2 {
							continue
						}
						p.Ingest(serve.Sample{Site: "b", Tier: tier, Time: float64(bSec), Values: vecs[tier][bSec%n]})
					}
				}
				switch len(aDecisions) {
				case swapAfter:
					var err error
					if swap, err = p.SwapMonitor("a", mon, 7); err != nil {
						t.Errorf("swap from OnDecision: %v", err)
					}
				case flushAfter:
					p.Flush() // closes b's open window; a has none
				}
			},
			OnHealth: func(ev serve.HealthEvent) {
				healthEvents++
				p.Stats()
				p.NoteDrift(ev.Site, 1)
				p.Ingest(serve.Sample{Site: "c", Tier: 0, Time: float64(healthEvents), Values: vecs[0][0]})
			},
		}
		var err error
		if p, err = serve.NewPipeline(mon, cfg); err != nil {
			t.Error(err)
			return
		}
		for sec := 1; sec <= windows*window; sec++ {
			for tier := server.TierID(0); tier < server.NumTiers; tier++ {
				p.Ingest(serve.Sample{Site: "a", Tier: tier, Time: float64(sec), Values: vecs[tier][sec%n]})
			}
		}
		p.Flush()

		if len(aDecisions) != windows {
			t.Errorf("site a decided %d windows, want %d", len(aDecisions), windows)
			return
		}
		if want := aDecisions[swapAfter-1].Seq + 1; swap.Seq != want || swap.Version != 7 {
			t.Errorf("swap from the window-%d callback landed as %+v, want window %d",
				aDecisions[swapAfter-1].Seq, swap, want)
		}
		for _, d := range aDecisions {
			want := int64(0)
			if d.Seq >= swap.Seq {
				want = 7
			}
			if d.ModelVersion != want {
				t.Errorf("window %d decided by version %d, want %d", d.Seq, d.ModelVersion, want)
			}
		}
		if deg, drop := outcomes(p.Stats()); deg == 0 || drop == 0 {
			t.Errorf("%d degraded and %d dropped windows; b's short windows miss a rung of the ladder", deg, drop)
		}
		if bDecided == 0 || healthEvents == 0 {
			t.Errorf("nested callbacks: %d decisions for b, %d health events; the regression exercised nothing",
				bDecided, healthEvents)
		}
		if st, _ := p.SiteStats("a"); st.DriftSignals != windows {
			t.Errorf("site a counted %d drift notes from its callbacks, want %d", st.DriftSignals, windows)
		}
		if _, ok := p.SiteStats("c"); !ok {
			t.Error("the sample ingested from OnHealth never created its site")
		}
	})
}

// TestShardedValveAndOverload mirrors the unsharded valve semantics on
// the sharded path: the valve reads survive site-table growth (refs are
// pointer-stable), fail open while stale, and track the latest verdict.
func TestShardedValveAndOverload(t *testing.T) {
	lab, mon, tr := fixture(t)
	vecs := secondVectors(tr)
	window := lab.Scale.Window
	n := len(tr.SecTimes)
	rec := newRecorder()
	sp, err := serve.NewShardedPipeline(mon, rec.config(window), serve.ShardConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	valve := sp.AdmissionValve("v", 2)
	if !valve(server.AdmissionState{WaitQueue: 9, BoundWorkers: 9}) {
		t.Error("valve not fail-open before any decision")
	}
	// Grow the site table past the valve's site, then drive windows: the
	// valve must keep reading v's flags across the dense-slice growth.
	for i := 0; i < 500; i++ {
		sp.Register(fmt.Sprintf("filler-%03d", i))
	}
	for sec := 1; sec <= 2*window; sec++ {
		for tier := server.TierID(0); tier < server.NumTiers; tier++ {
			sp.Ingest(serve.Sample{Site: "v", Tier: tier, Time: float64(sec), Values: vecs[tier][sec%n]})
		}
	}
	sp.Sync()
	ds := rec.decisions["v"]
	if len(ds) == 0 {
		t.Fatal("no decisions for the valve's site")
	}
	last := ds[len(ds)-1]
	if got := sp.Overloaded("v"); got != last.Prediction.Overload {
		t.Errorf("Overloaded(v) = %t, last decision says %t", got, last.Prediction.Overload)
	}
	if !last.Prediction.Overload && !valve(server.AdmissionState{WaitQueue: 9, BoundWorkers: 9}) {
		t.Error("valve closed while the monitor predicts underload")
	}
	if !valve(server.AdmissionState{}) {
		t.Error("valve closed with an empty server")
	}
}

// TestBatcherAddSite pins the producer-side batching API differentially:
// a seeded scrape program — every tier's vector for one site and second,
// with per-tier corruption (NaN/Inf components, short and nil vectors)
// and shared timestamp faults (non-finite, rewound, duplicated) — replays
// through the unsharded Pipeline as sequential per-tier Ingest calls,
// through the sharded pipeline's per-tier Ingest, and through the fused
// Batcher.AddSite, with counter fusion off and on; two sites calm down
// and recover from degraded and from stale (scripted).
// All three must produce identical per-site transcripts and counters:
// fusing a scrape into one queue slot may never change an outcome.
func TestBatcherAddSite(t *testing.T) {
	lab, mon, tr := fixture(t)
	vecs := secondVectors(tr)
	window := lab.Scale.Window
	n := len(vecs[0])
	dim := len(vecs[0][0])
	const nSites = 5
	seconds := 8 * window

	type scrape struct {
		site int
		time float64
		vecs [server.NumTiers][]float64
		sync bool
	}
	names := make([]string, nSites)
	for i := range names {
		names[i] = fmt.Sprintf("site-%02d", i)
	}

	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var prog []scrape
		for sec := 1; sec <= seconds; sec++ {
			for s := 0; s < nSites; s++ {
				ev := scrape{site: s, time: float64(sec)}
				for tier := server.TierID(0); tier < server.NumTiers; tier++ {
					v := vecs[tier][sec%n]
					switch roll := rng.Float64(); {
					case roll < 0.03: // NaN component
						v = append([]float64(nil), v...)
						v[rng.Intn(dim)] = math.NaN()
					case roll < 0.05: // Inf component
						v = append([]float64(nil), v...)
						v[rng.Intn(dim)] = math.Inf(1 - 2*rng.Intn(2))
					case roll < 0.07: // short vector
						v = v[:rng.Intn(dim)]
					case roll < 0.09: // nil vector
						v = nil
					}
					ev.vecs[tier] = v
				}
				mark := len(prog)
				switch roll := rng.Float64(); {
				case roll < 0.02: // non-finite scrape timestamp
					if rng.Intn(2) == 0 {
						ev.time = math.NaN()
					} else {
						ev.time = math.Inf(1)
					}
				case roll < 0.04: // rewound scrape
					ev.time = float64(rng.Intn(sec) + 1)
				case roll < 0.06: // duplicated scrape
					prog = append(prog, ev)
				}
				prog = append(prog, ev)
				if calm, drop := scripted(s, sec, window); calm {
					prog = prog[:mark]
					if !drop {
						clean := scrape{site: s, time: float64(sec)}
						for tier := range clean.vecs {
							clean.vecs[tier] = vecs[tier][sec%n]
						}
						prog = append(prog, clean)
					}
				}
			}
			if rng.Float64() < 0.1 { // mid-stream barrier
				prog = append(prog, scrape{sync: true})
			}
		}

		for _, leg := range []struct {
			suffix string
			fuse   *fuse.Config
		}{{"", nil}, {"/fuse", &fuse.Config{}}} {
			// Reference: the unsharded pipeline fed tier by tier.
			ref := newRecorder()
			refCfg := ref.config(window)
			refCfg.Fuse = leg.fuse
			p, err := serve.NewPipeline(mon, refCfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range prog {
				if ev.sync {
					continue
				}
				for tier := server.TierID(0); tier < server.NumTiers; tier++ {
					p.Ingest(serve.Sample{Site: names[ev.site], Tier: tier, Time: ev.time, Values: ev.vecs[tier]})
				}
			}
			p.Flush()
			refStats := scrubLatency(p.Stats())
			if deg, drop := outcomes(refStats); deg == 0 || drop == 0 {
				t.Errorf("seed %d%s: %d degraded and %d dropped windows; the storm misses a rung of the ladder", seed, leg.suffix, deg, drop)
			}
			if fromDeg, fromStale := recoveries(refStats); fromDeg == 0 || fromStale == 0 {
				t.Errorf("seed %d%s: %d degraded→healthy and %d stale→healthy edges; the storm misses a recovery", seed, leg.suffix, fromDeg, fromStale)
			}

			for _, sc := range shardConfigs {
				for _, fusedPath := range []bool{false, true} {
					name := fmt.Sprintf("seed=%d/shards=%d/batch=%d/fused=%t%s", seed, sc.shards, sc.batch, fusedPath, leg.suffix)
					t.Run(name, func(t *testing.T) {
						rec := newRecorder()
						cfg := rec.config(window)
						cfg.Fuse = leg.fuse
						sp := newSharded(t, mon, cfg, sc)
						defer sp.Close()
						refs := make([]serve.SiteRef, nSites)
						for i, nm := range names {
							refs[i] = sp.Register(nm)
						}
						bt := sp.NewBatcher()
						for _, ev := range prog {
							if ev.sync {
								bt.Flush()
								sp.Sync()
								continue
							}
							if fusedPath {
								bt.AddSite(refs[ev.site], ev.time, ev.vecs)
								continue
							}
							for tier := server.TierID(0); tier < server.NumTiers; tier++ {
								sp.Ingest(serve.Sample{Site: names[ev.site], Tier: tier, Time: ev.time, Values: ev.vecs[tier]})
							}
						}
						bt.Flush()
						sp.Flush()

						for s := 0; s < nSites; s++ {
							want, got := ref.transcript(names[s]), rec.transcript(names[s])
							if got != want {
								t.Errorf("%s transcript diverged\n--- ingest ---\n%s--- batcher ---\n%s", names[s], want, got)
							}
						}
						if got := scrubLatency(sp.Stats()); !reflect.DeepEqual(got, refStats) {
							t.Errorf("stats diverged\ningest:  %+v\nbatcher: %+v", refStats, got)
						}
						tot := sp.Totals()
						if tot.Enqueued == 0 || tot.Enqueued != tot.Processed {
							t.Errorf("queue slots lost: enqueued %d != processed %d", tot.Enqueued, tot.Processed)
						}
						if tot.RejectedClosed != 0 || tot.RejectedRef != 0 {
							t.Errorf("unexpected rejections: %+v", tot)
						}
						// Slot accounting: a fused slot carries NumTiers samples.
						var ingested uint64
						for _, st := range sp.Stats() {
							ingested += st.SamplesIngested
						}
						want := tot.Processed
						if fusedPath {
							want *= uint64(server.NumTiers)
						}
						if ingested != want {
							t.Errorf("site counters absorb %d samples from %d slots (fused=%t)", ingested, tot.Processed, fusedPath)
						}
					})
				}
			}
		}
	}
}
