// Command capstress stress-tests the simulated two-tier website under a
// chosen TPC-W mix and prints a per-window time series of application
// health and per-tier telemetry — the raw material of the paper's offline
// capacity calibration.
//
// Usage:
//
//	capstress -mix browsing -ebs 400 -duration 1800
//	capstress -mix ordering -ramp 50:700:10 -step 120
//	capstress -traffic "steady mix=browsing base=300 for=240; flash base=300 peak=2000 for=240 hold=120 decay=60"
//	capstress -ebs 300 -chaos "nan tier=app at=120 for=60 p=0.2"
//	capstress -sites 100000 -seconds 40              # fleet-scale ingest, unsharded
//	capstress -sites 100000 -seconds 40 -shards 8    # sharded fleet-scale ingest
//	capstress -sites 100000 -seconds 40 -shards 8 -fuse  # with counter fusion on
//
// With -sites N (N > 0) capstress switches to the fleet-scale ingest leg:
// it trains a quick HPC monitor, records one minute of per-tier counter
// vectors from a steady testbed, then replays them as N sites' 1-second
// samples through the serving pipeline — the unsharded one, or with
// -shards the sharded one on its fused fast path (Register once, then
// Batcher.AddSite: one queue slot per site-second carrying every tier's
// vector). The first synthetic second warms the site table and is
// excluded; the measured legs report sites/sec, samples/sec, ns per
// ingest sample, sampled p50/p99 per-site scrape latency, and allocation
// rates as one JSON row on stdout (progress goes to stderr) — the format
// scripts/bench_serve.sh collects into BENCH_serve.json.
//
// With -chaos the run also samples per-tier hardware counters through the
// deterministic fault injector (internal/chaos), with the flaky reads
// hardened by the bounded-retry collector the serving stack uses: the
// table gains a faults column counting injections per window, and the
// totals report the injector's and retrier's counters. The testbed itself
// is never faulted — chaos corrupts telemetry, not traffic.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hpcap/internal/chaos"
	"hpcap/internal/experiment"
	"hpcap/internal/fuse"
	"hpcap/internal/metrics"
	"hpcap/internal/pi"
	"hpcap/internal/predictor"
	"hpcap/internal/serve"
	"hpcap/internal/server"
	"hpcap/internal/tpcw"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "capstress:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("capstress", flag.ContinueOnError)
	mixName := fs.String("mix", "shopping", "traffic mix: browsing|shopping|ordering|unknown")
	ebs := fs.Int("ebs", 200, "steady emulated-browser population")
	ramp := fs.String("ramp", "", "ramp start:end:steps (overrides -ebs)")
	traffic := fs.String("traffic", "", `traffic program (overrides -mix/-ebs/-ramp), e.g. "steady mix=browsing base=300 for=240; flash base=300 peak=2000 for=300 hold=120 decay=60"`)
	step := fs.Float64("step", 120, "ramp step duration, seconds")
	duration := fs.Float64("duration", 1800, "steady run duration, seconds")
	window := fs.Int("window", 30, "reporting window, seconds")
	seed := fs.Int64("seed", 1, "random seed")
	chaosSpec := fs.String("chaos", "", `fault schedule to inject into the counter stream, e.g. "nan tier=app at=120 for=60 p=0.2"`)
	scaleSites := fs.Int("sites", 0, "fleet-scale ingest leg: number of sites to stream; 0 runs the classic stress table")
	scaleSeconds := fs.Int("seconds", 10, "fleet-scale leg: measured synthetic seconds to stream per site")
	shards := fs.Int("shards", 0, "fleet-scale leg: ingest shards; 0 measures the unsharded pipeline")
	batch := fs.Int("batch", 0, "fleet-scale leg: samples per shard batch (0 takes the default)")
	queue := fs.Int("queue", 0, "fleet-scale leg: per-shard queue capacity (0 takes the default)")
	leg := fs.String("leg", "", "fleet-scale leg: row-name override; defaults to unsharded/sharded by -shards")
	fuseOn := fs.Bool("fuse", false, "fleet-scale leg: run every sample through the counter-fusion stage")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scaleSites > 0 {
		return runScale(scaleOpts{
			sites:   *scaleSites,
			seconds: *scaleSeconds,
			shards:  *shards,
			batch:   *batch,
			queue:   *queue,
			window:  *window,
			seed:    *seed,
			leg:     *leg,
			fuse:    *fuseOn,
		}, os.Stdout, os.Stderr)
	}
	if *shards != 0 || *batch != 0 || *queue != 0 || *leg != "" || *fuseOn {
		return fmt.Errorf("-shards, -batch, -queue, -leg, and -fuse only apply to the fleet-scale leg (-sites > 0)")
	}

	mix, err := mixByName(*mixName)
	if err != nil {
		return err
	}
	var sched tpcw.Schedule
	if *traffic != "" {
		if *ramp != "" {
			return fmt.Errorf("-traffic and -ramp are mutually exclusive")
		}
		prog, err := tpcw.ParseTraffic(*traffic)
		if err != nil {
			return fmt.Errorf("-traffic: %w", err)
		}
		sched = prog.Schedule()
	} else if *ramp != "" {
		parts := strings.Split(*ramp, ":")
		if len(parts) != 3 {
			return fmt.Errorf("bad -ramp %q, want start:end:steps", *ramp)
		}
		start, err1 := strconv.Atoi(parts[0])
		end, err2 := strconv.Atoi(parts[1])
		steps, err3 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return fmt.Errorf("bad -ramp %q", *ramp)
		}
		sched = tpcw.Ramp(mix, start, end, steps, *step)
	} else {
		sched = tpcw.Steady(mix, *ebs, *duration)
	}

	cfg := server.DefaultConfig()
	cfg.Seed = *seed
	tb, err := server.NewTestbed(cfg, sched)
	if err != nil {
		return err
	}
	if err := tb.Start(); err != nil {
		return err
	}

	// Chaos mode: sample per-tier counters through retry-hardened flaky
	// collectors, then run the vectors through the fault injector.
	var (
		inj  *chaos.Injector
		coll [server.NumTiers]*metrics.RetryCollector
	)
	if *chaosSpec != "" {
		csched, err := chaos.Parse(*chaosSpec)
		if err != nil {
			return fmt.Errorf("-chaos: %w", err)
		}
		inj = chaos.NewInjector(csched, *seed)
		_, hpc := experiment.Collectors(
			[server.NumTiers]server.MachineConfig{cfg.App.Machine, cfg.DB.Machine}, *seed)
		for tier := range coll {
			coll[tier] = metrics.NewRetryCollector(chaos.NewFlakyCollector(hpc[tier], csched), 2)
		}
	}

	labeler := pi.Labeler{}
	header := fmt.Sprintf("%8s %5s %8s %9s %7s | %6s %6s %7s %7s | %6s %6s %7s %7s | %5s",
		"time(s)", "EBs", "thr/s", "meanRT", "inflight",
		"appU", "appRQ", "appMiss", "appDil",
		"dbU", "dbRQ", "dbMiss", "dbDil", "state")
	if inj != nil {
		header += fmt.Sprintf(" | %6s", "faults")
	}
	fmt.Println(header)
	total := sched.Duration()
	var lastInjected uint64
	for t := 0.0; t < total; t += float64(*window) {
		var completions, arrivals int
		var rtW float64
		var last server.Snapshot
		var appBusy, dbBusy, appMiss, dbMiss, appDil, dbDil float64
		for i := 0; i < *window; i++ {
			s := tb.RunInterval(1)
			if inj != nil {
				for tier := server.TierID(0); tier < server.NumTiers; tier++ {
					inj.Apply(serve.Sample{
						Site:   "stress",
						Tier:   tier,
						Time:   s.Time,
						Values: coll[tier].Collect(s, 1),
					})
				}
			}
			completions += s.Completions
			arrivals += s.Arrivals
			rtW += s.MeanRT * float64(s.Completions)
			appBusy += s.Tiers[server.TierApp].BusySeconds
			dbBusy += s.Tiers[server.TierDB].BusySeconds
			appMiss += s.Tiers[server.TierApp].MeanMissRatio
			dbMiss += s.Tiers[server.TierDB].MeanMissRatio
			appDil += s.Tiers[server.TierApp].MeanDilation
			dbDil += s.Tiers[server.TierDB].MeanDilation
			last = s
		}
		w := float64(*window)
		meanRT := 0.0
		if completions > 0 {
			meanRT = rtW / float64(completions)
		}
		state := "ok"
		label := labeler.Label(sampleHealth(meanRT, completions, arrivals, *window))
		if label == 1 {
			state = "OVER"
		}
		line := fmt.Sprintf("%8.0f %5d %8.1f %9.3f %7d | %6.2f %6d %7.3f %7.2f | %6.2f %6d %7.3f %7.2f | %5s",
			t+w, last.ActiveEBs, float64(completions)/w, meanRT, last.InFlight,
			appBusy/w, last.Tiers[server.TierApp].RunQueue, appMiss/w, appDil/w,
			dbBusy/w, last.Tiers[server.TierDB].RunQueue, dbMiss/w, dbDil/w,
			state)
		if inj != nil {
			injected := inj.Stats().Injected()
			line += fmt.Sprintf(" | %6d", injected-lastInjected)
			lastInjected = injected
		}
		fmt.Println(line)
	}
	arr, comp, rej, inflight := tb.Conservation()
	fmt.Printf("\ntotals: arrivals=%d completions=%d rejections=%d in-flight=%d\n",
		arr, comp, rej, inflight)
	if inj != nil {
		inj.Drain()
		fs := inj.Stats()
		var retries, fallbacks uint64
		for tier := server.TierID(0); tier < server.NumTiers; tier++ {
			retries += coll[tier].Retries()
			fallbacks += coll[tier].Failures()
		}
		fmt.Printf("chaos:  offered=%d emitted=%d injected=%d dropped=%d nan=%d stuck=%d stalled=%d dup=%d skew=%d outage=%d retries=%d fallbacks=%d\n",
			fs.Offered, fs.Emitted, fs.Injected(), fs.Dropped, fs.Corrupted, fs.Frozen,
			fs.Stalled, fs.Duplicated, fs.Skewed, fs.Outaged, retries, fallbacks)
	}
	return nil
}

// scaleOpts parameterizes one fleet-scale ingest leg.
type scaleOpts struct {
	sites, seconds       int
	shards, batch, queue int
	window               int
	seed                 int64
	leg                  string
	fuse                 bool
}

// scaleRow is the leg's result: one JSON object per line on stdout, the
// unit scripts/bench_serve.sh folds into BENCH_serve.json.
type scaleRow struct {
	Name          string  `json:"name"`
	Sites         int     `json:"sites"`
	Fused         bool    `json:"fused"`
	Shards        int     `json:"shards"`
	BatchSize     int     `json:"batch_size"`
	QueueCapacity int     `json:"queue_capacity"`
	Seconds       int     `json:"seconds"`
	Samples       int     `json:"samples"`
	SitesPerSec   float64 `json:"sites_per_sec"`
	SamplesPerSec float64 `json:"samples_per_sec"`
	NsPerOp       float64 `json:"ns_per_op"`
	P50IngestNs   int64   `json:"p50_ingest_ns"`
	P99IngestNs   int64   `json:"p99_ingest_ns"`
	BytesPerOp    float64 `json:"bytes_per_op"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	Decisions     uint64  `json:"decisions"`
}

// latencySampleEvery thins the per-call latency probes so time.Now is off
// the hot path for 63 of every 64 ingests.
const latencySampleEvery = 64

// runScale measures steady-state fleet ingest: o.sites sites streaming one
// sample per tier per synthetic second for o.seconds seconds, through the
// unsharded pipeline or (o.shards > 0) the sharded pipeline's fused
// Batcher.AddSite fast path. The first second warms the site tables and is
// excluded from every number; the measured window ends at a full drain
// (Sync) so sharded throughput cannot hide samples in the queues.
func runScale(o scaleOpts, out, progress io.Writer) error {
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be >= 1, got %d", o.seconds)
	}
	fmt.Fprintf(progress, "training quick HPC monitor...\n")
	lab := experiment.NewLab(experiment.QuickScale())
	lab.Seed = o.seed
	monitor, err := lab.TrainMonitor(metrics.LevelHPC, predictor.Config{})
	if err != nil {
		return fmt.Errorf("train monitor: %w", err)
	}

	// One minute of real per-tier counter vectors from a steady testbed,
	// cycled as every site's stream. Shared read-only across sites: the
	// pipeline never mutates sample values, so one recording serves 100k
	// sites without 100k collector instances.
	const recordSeconds = 60
	cfg := server.DefaultConfig()
	cfg.Seed = o.seed
	tb, err := server.NewTestbed(cfg, tpcw.Steady(tpcw.Browsing(), 200, recordSeconds+1))
	if err != nil {
		return err
	}
	if err := tb.Start(); err != nil {
		return err
	}
	var vecs [server.NumTiers][][]float64
	_, coll := experiment.Collectors(
		[server.NumTiers]server.MachineConfig{cfg.App.Machine, cfg.DB.Machine}, o.seed)
	for i := 0; i < recordSeconds; i++ {
		s := tb.RunInterval(1)
		for tier := server.TierID(0); tier < server.NumTiers; tier++ {
			vecs[tier] = append(vecs[tier], coll[tier].Collect(s, 1))
		}
	}

	var decisions atomic.Uint64
	scfg := serve.Config{
		Window:     o.window,
		OnDecision: func(serve.Decision) { decisions.Add(1) },
	}
	if o.fuse {
		fc := fuse.DefaultConfig()
		scfg.Fuse = &fc
	}

	leg := o.leg
	row := scaleRow{Sites: o.sites, Seconds: o.seconds, Fused: o.fuse}
	var (
		ingestSite func(i int, ts float64, vs *[server.NumTiers][]float64)
		barrier    func()
		finish     func()
	)
	if o.shards > 0 {
		sc := serve.ShardConfig{Shards: o.shards, BatchSize: o.batch, QueueCapacity: o.queue}
		sp, err := serve.NewShardedPipeline(monitor, scfg, sc)
		if err != nil {
			return fmt.Errorf("build sharded pipeline: %w", err)
		}
		// The fleet path: resolve each site to a shard-local ref once, then
		// batch fused scrapes by ref — no hashing, name lookup, or per-sample
		// shard lock, and one queue slot per site-second instead of per tier.
		refs := make([]serve.SiteRef, o.sites)
		for i := range refs {
			refs[i] = sp.Register(fmt.Sprintf("site-%06d", i))
		}
		bt := sp.NewBatcher()
		ingestSite = func(i int, ts float64, vs *[server.NumTiers][]float64) {
			bt.AddSite(refs[i], ts, *vs)
		}
		barrier = func() {
			bt.Flush()
			sp.Sync()
		}
		finish = func() {
			sp.Flush()
			sp.Close()
			tot := sp.Totals()
			fmt.Fprintf(progress, "shards: enqueued=%d processed=%d batches=%d stalls=%d\n",
				tot.Enqueued, tot.Processed, tot.Batches, tot.Stalls)
		}
		if leg == "" {
			leg = "sharded"
		}
		def := serve.DefaultShardConfig()
		row.Shards, row.BatchSize, row.QueueCapacity = o.shards, o.batch, o.queue
		if row.BatchSize == 0 {
			row.BatchSize = def.BatchSize
		}
		if row.QueueCapacity == 0 {
			row.QueueCapacity = def.QueueCapacity
		}
	} else {
		p, err := serve.NewPipeline(monitor, scfg)
		if err != nil {
			return fmt.Errorf("build pipeline: %w", err)
		}
		names := make([]string, o.sites)
		for i := range names {
			names[i] = fmt.Sprintf("site-%06d", i)
		}
		ingestSite = func(i int, ts float64, vs *[server.NumTiers][]float64) {
			for tier := server.TierID(0); tier < server.NumTiers; tier++ {
				p.Ingest(serve.Sample{Site: names[i], Tier: tier, Time: ts, Values: vs[tier]})
			}
		}
		barrier = func() {}
		finish = p.Flush
		if leg == "" {
			leg = "unsharded"
		}
	}
	if o.leg == "" && o.fuse {
		leg += "-fuse"
	}
	row.Name = fmt.Sprintf("ScaleIngest/%s/sites=%d", leg, o.sites)

	// The latency probe times whole site scrapes (all tiers), every
	// latencySampleEvery-th site — the unit a fleet collector hands over.
	var latencies []int64
	calls := 0
	streamSecond := func(sec int, probe bool) {
		ts := float64(sec)
		vi := (sec - 1) % recordSeconds
		var scrape [server.NumTiers][]float64
		for tier := server.TierID(0); tier < server.NumTiers; tier++ {
			scrape[tier] = vecs[tier][vi]
		}
		for i := 0; i < o.sites; i++ {
			if probe && calls%latencySampleEvery == 0 {
				t0 := time.Now()
				ingestSite(i, ts, &scrape)
				latencies = append(latencies, time.Since(t0).Nanoseconds())
			} else {
				ingestSite(i, ts, &scrape)
			}
			calls++
		}
	}

	fmt.Fprintf(progress, "warming %d sites...\n", o.sites)
	streamSecond(1, false)
	barrier()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for sec := 2; sec <= o.seconds+1; sec++ {
		streamSecond(sec, true)
		if (sec-1)%10 == 0 || sec == o.seconds+1 {
			fmt.Fprintf(progress, "streamed %d/%d seconds (%d samples)\n", sec-1, o.seconds, calls*int(server.NumTiers))
		}
	}
	barrier()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	finish()

	samples := o.sites * int(server.NumTiers) * o.seconds
	row.Samples = samples
	row.SitesPerSec = float64(o.sites*o.seconds) / elapsed.Seconds()
	row.SamplesPerSec = float64(samples) / elapsed.Seconds()
	row.NsPerOp = float64(elapsed.Nanoseconds()) / float64(samples)
	row.BytesPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(samples)
	row.AllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(samples)
	row.Decisions = decisions.Load()
	if len(latencies) > 0 {
		sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
		row.P50IngestNs = latencies[len(latencies)/2]
		row.P99IngestNs = latencies[len(latencies)*99/100]
	}

	enc := json.NewEncoder(out)
	return enc.Encode(row)
}

func sampleHealth(meanRT float64, completions, arrivals, window int) metrics.Sample {
	return metrics.Sample{
		MeanRT:      meanRT,
		Throughput:  float64(completions) / float64(window),
		ArrivalRate: float64(arrivals) / float64(window),
	}
}

func mixByName(name string) (tpcw.Mix, error) {
	switch name {
	case "browsing":
		return tpcw.Browsing(), nil
	case "shopping":
		return tpcw.Shopping(), nil
	case "ordering":
		return tpcw.Ordering(), nil
	case "unknown":
		return tpcw.Unknown(), nil
	default:
		return tpcw.Mix{}, fmt.Errorf("unknown mix %q", name)
	}
}
