package main

import (
	"fmt"

	"hpcap/internal/serve"
	"hpcap/internal/simsite"
)

// def declares one metric; BENCHMARK.json carries the same names and
// units, and bench_test.go holds the two to each other.
type def struct{ name, unit string }

// endToEnd is what a user of the system sees; every workload reports
// every one of them.
var endToEnd = []def{
	{"setup_s", "s"},
	{"samples_per_s", "tier-samples/s"},
	{"decision_lat_p50_ms", "ms"},
	{"allocs_per_sample", "allocs"},
	{"peak_rss_mb", "MiB"},
}

// perLayer is the ledger. A row whose layer the workload bypasses reads 0.
var perLayer = []def{
	// Layer replays on the workload's own recordings (ledger.go).
	{"cpu.collect_ns", "ns"},
	{"server.run_interval_us", "us"},
	{"server.dag_run_interval_us", "us"},
	{"chaos.inject_ns", "ns"},
	{"fuse.clean_ns", "ns"},
	{"fuse.faulty_ns", "ns"},
	{"metrics.push_ns", "ns"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.decode_allocs_per_frame", "count"},
	{"wire.frame_bytes", "B"},
	{"serve.accept_ns", "ns"},
	{"core.decide_ns", "ns"},
	{"core.decide_batch_ns", "ns"},
	{"core.train_s", "s"},
	{"wal.append_ns", "ns"},
	{"wal.append_sync_ns", "ns"},
	{"wal.replay_ns", "ns"},
	{"serve.shard1_ns_per_sample", "ns"},
	{"serve.pipeline_ns_per_sample", "ns"},
	// The loopback probe: a short network drain of the recordings.
	{"wire.send_ns", "ns"},
	{"wire.write_calls_per_frame", "count"},
	{"wire.read_calls_per_frame", "count"},
	{"wal.e2e_us_per_frame", "us"},
	{"wal.e2e_us_per_frame_iqr", "us"},
	// Counters the layers export, read around the traced run.
	{"fuse.imputed_share", "ratio"},
	{"fuse.gated_share", "ratio"},
	{"fuse.low_conf_windows", "count"},
	{"serve.windows_decided", "count"},
	{"serve.windows_degraded", "count"},
	{"serve.windows_dropped", "count"},
	{"serve.samples_skipped", "count"},
	{"serve.predict_ns_mean", "ns"},
	{"serve.failed_share", "ratio"},
	{"serve.enqueue_ns", "ns"},
	{"serve.stalls", "count"},
	{"serve.batches", "count"},
	{"serve.queue_depth_max", "count"},
	{"serve.shard_skew", "ratio"},
	{"serve.burst_ns_per_decision", "ns"},
	{"serve.decision_lat_p99_ms", "ms"},
	{"wire.sender_dropped", "count"},
	{"wire.sender_retries", "count"},
	{"serve.frames", "count"},
	{"serve.decode_errors", "count"},
	{"serve.seq_gaps", "count"},
	{"serve.lost_frames", "count"},
	{"proc.cpu_s_per_msample", "s"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.steal_share", "ratio"},
	{"gen.late_max_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
	{"gen.pooled_lat_p999_ms", "ms"},
	// live-fleet only: the workload with ground truth.
	{"sim.site_s_per_s", "site-s/s"},
	{"baseline.detect_lag_s", "sim-s"},
	{"pi.balanced_accuracy", "ratio"},
	// The ledger's own sums.
	{"ledger.sum_ns_per_sample", "ns"},
	{"ledger.unattributed_ns_per_sample", "ns"},
	{"trace.overhead_share", "ratio"},
}

// Rows only some workloads can fill; the others zero them.
var (
	liveRowNames  = []string{"sim.site_s_per_s", "baseline.detect_lag_s", "pi.balanced_accuracy"}
	shardRowNames = []string{"serve.enqueue_ns", "serve.stalls", "serve.batches", "serve.queue_depth_max",
		"serve.shard_skew", "serve.burst_ns_per_decision"}
	netRowNames = []string{"wire.sender_dropped", "wire.sender_retries", "serve.frames",
		"serve.decode_errors", "serve.seq_gaps", "serve.lost_frames"}
	genRowNames = []string{"gen.late_max_ms", "gen.late_p99_ms", "gen.pooled_lat_p999_ms"}
)

func zero(rows map[string]float64, names ...string) {
	for _, n := range names {
		rows[n] = 0
	}
}

// term is one replayed layer on a workload's blocking path and how many
// of its operations one tier-sample costs.
type term struct {
	row       string
	perSample float64
}

// outcome is one run of one workload.
type outcome struct {
	samplesPerS     float64
	latP50Ms        float64
	allocsPerSample float64
	peakRSSMiB      float64

	// attempted and failed count decisions: a window every site should
	// have had decided, and the ones that never were.
	attempted, failed int64
	errs              []string // output checks that did not hold

	// layer holds the ledger rows observed during the run itself.
	layer          map[string]float64
	cpuNsPerSample float64 // drain phase, processor time

	// What the layer replays run on: the workload's recordings, whether
	// it fuses, and the simulator behind its counters (or that
	// simulator's tier-DAG twin) with the seconds to advance it.
	clean, faulty []scrape
	fuse          bool
	faultyMod     int // as fleetSpec's: which replayed sites take the faulted recording
	sim           func(dag bool) ([]simsite.Testbed, error)
	simSeconds    int
	// path lists the replayed layers on the workload's blocking path.
	path []term
}

func newOutcome(clean, faulty []scrape, fuse bool, faultyMod int) *outcome {
	return &outcome{layer: make(map[string]float64), clean: clean, faulty: faulty, fuse: fuse, faultyMod: faultyMod}
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// expect books a phase's decisions: a shortfall is failed operations, a
// surplus is an incorrect output.
func (o *outcome) expect(phase string, want, got int64) {
	o.attempted += want
	if got < want {
		o.failed += want - got
	}
	o.check(got <= want, "%s published %d decisions, more than the %d expected", phase, got, want)
}

// conserve checks that every sample the generator offered is accounted
// for by the counters the layers export: ingested, or lost in a place
// that counted it.
func (o *outcome) conserve(phase string, f *fleet, seconds int, totals serve.ShardStats, sites []serve.SiteStats, net netStats) {
	scrapes := uint64(len(f.names) * seconds)
	var ingested uint64
	for i := range sites {
		ingested += sites[i].SamplesIngested
	}
	o.check(totals.Enqueued == totals.Processed, "%s: %d scrapes enqueued, %d processed", phase, totals.Enqueued, totals.Processed)
	o.check(totals.RejectedClosed == 0 && totals.RejectedRef == 0, "%s: %d post-close and %d bad-ref rejects",
		phase, totals.RejectedClosed, totals.RejectedRef)
	o.check(ingested == totals.Processed*uint64(tiers), "%s: %d samples ingested from %d scrapes", phase, ingested, totals.Processed)
	if !f.spec.net {
		o.check(totals.Enqueued == scrapes, "%s: %d scrapes offered, %d enqueued", phase, scrapes, totals.Enqueued)
		return
	}
	s := net.sender
	o.check(net.framesOffered*frameSamples == scrapes, "%s: %d frames for %d scrapes", phase, net.framesOffered, scrapes)
	o.check(net.framesOffered == s.Enqueued+s.DroppedClosed+s.DroppedOversize, "%s: %d frames offered, sender counted %d",
		phase, net.framesOffered, s.Enqueued+s.DroppedClosed+s.DroppedOversize)
	o.check(s.Enqueued == s.Sent+s.DroppedFull+s.DroppedRetry, "%s: sender queued %d, sent %d, dropped %d",
		phase, s.Enqueued, s.Sent, s.DroppedFull+s.DroppedRetry)
	o.check(s.Sent == net.server.Frames+net.server.DecodeErrors && net.server.ReadErrors == 0 && net.server.LogErrors == 0,
		"%s: %d frames sent, server saw %d good, %d undecodable, %d read errors, %d log errors",
		phase, s.Sent, net.server.Frames, net.server.DecodeErrors, net.server.ReadErrors, net.server.LogErrors)
	o.check(net.server.Frames == net.frames+net.dups+net.reordered, "%s: server passed %d frames, ingest counted %d",
		phase, net.server.Frames, net.frames+net.dups+net.reordered)
	o.check(net.samples == totals.Enqueued, "%s: %d scrapes unpacked, %d enqueued", phase, net.samples, totals.Enqueued)
}

// siteRows fills the rows read from the per-site serving counters; dim is
// the counters per sample, which those counters do not carry.
func siteRows(rows map[string]float64, sites []serve.SiteStats, dim int) {
	var decided, degraded, dropped, skipped, lowConf, predictNs, fused, imputed, gated float64
	for i := range sites {
		s := &sites[i]
		decided += float64(s.WindowsDecided)
		degraded += float64(s.WindowsDegraded)
		dropped += float64(s.WindowsDropped)
		skipped += float64(s.SamplesLate + s.SamplesBadValue + s.SamplesBadShape + s.SamplesGapReset)
		lowConf += float64(s.WindowsLowConfidence)
		predictNs += float64(s.PredictNanos)
		fused += float64(s.SamplesFused)
		imputed += float64(s.FuseImputed)
		gated += float64(s.FuseGated)
	}
	rows["serve.windows_decided"] = decided
	rows["serve.windows_degraded"] = degraded
	rows["serve.windows_dropped"] = dropped
	rows["serve.samples_skipped"] = skipped
	rows["fuse.low_conf_windows"] = lowConf
	rows["serve.predict_ns_mean"] = ratio(predictNs, decided)
	readings := fused * float64(dim)
	rows["fuse.imputed_share"] = ratio(imputed, readings)
	rows["fuse.gated_share"] = ratio(gated, readings)
}

// shardRows fills the rows read from the shard queues' counters: totals
// of every phase, and the drain phase's split over the shards.
func shardRows(rows map[string]float64, totals, shards []serve.ShardStats) {
	var stalls, batches, most, sum float64
	for _, t := range totals {
		stalls += float64(t.Stalls)
		batches += float64(t.Batches)
	}
	for _, s := range shards {
		most = max(most, float64(s.Processed))
		sum += float64(s.Processed)
	}
	rows["serve.stalls"] = stalls
	rows["serve.batches"] = batches
	rows["serve.shard_skew"] = ratio(most, sum/float64(max(len(shards), 1)))
}

// netRows fills the rows read from the transport's counters.
func netRows(rows map[string]float64, phases ...netStats) {
	zero(rows, netRowNames...)
	for _, n := range phases {
		rows["wire.sender_dropped"] += float64(n.sender.Dropped())
		rows["wire.sender_retries"] += float64(n.sender.Retries)
		rows["serve.frames"] += float64(n.server.Frames)
		rows["serve.decode_errors"] += float64(n.server.DecodeErrors)
		rows["serve.seq_gaps"] += float64(n.seqGaps)
		rows["serve.lost_frames"] += float64(n.lostFrames)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
