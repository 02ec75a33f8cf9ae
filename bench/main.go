// Command bench is the repository's benchmark: four workloads that drive
// the sample→decision path through the packages' exported functions,
// time those calls from here, check the outputs, and print every metric
// by name. BENCHMARK.json at the repository root declares what it
// measures; README.md beside this file defines each figure.
//
//	go run -C bench . --workload fleet-direct --seed 1 --seconds 20 --trace 0
//	go run -C bench . --workload fleet-net --trace 1    # spans + ledger
//	go run -C bench .                                   # every workload
//	go run -C bench . -repeat 10                        # two sets of ten, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"hpcap/internal/metrics"
	"hpcap/internal/server"
)

// opts is what the command line fixes for a run.
type opts struct {
	seed    int64
	seconds float64
	// tiny shrinks every workload to a smoke test: a hundredth of the
	// sites, one drain segment, one paced window.
	tiny bool
}

// runner is a workload after set-up, ready for its first timed operation.
type runner interface {
	run(tr *tracer) (*outcome, error)
	// close releases a runner that will not run.
	close()
}

type workload struct {
	name    string
	prepare func(*env, opts) (runner, error)
}

const (
	// window is the samples per tier in a decision window: serve's
	// default, which no workload overrides.
	window = metrics.DefaultWindow
	tiers  = int(server.NumTiers)

	// What one tier-sample pays of a cost met once per scrape (every
	// tier's vector for one second), per frame, or per decided window.
	perScrape = 1.0 / float64(tiers)
	perFrame  = perScrape / frameSamples
	perWindow = perScrape / window
)

// The engine's share of a tier-sample: one aggregator push, and one
// batched decision per window of every tier. The producer's AddSite is
// not a term: most of what it takes is waiting for queue room.
var enginePath = []term{{"metrics.push_ns", 1}, {"core.decide_batch_ns", perWindow}}

var workloads = []workload{
	{"fleet-direct", prepareFleet(fleetSpec{
		name: "fleet-direct", sites: 20000, segSeconds: 30, interval: 10 * time.Millisecond,
		path: enginePath,
	})},
	{"fleet-fuse", prepareFleet(fleetSpec{
		name: "fleet-fuse", sites: 3000, fuse: true, faultyMod: 4, segSeconds: 30, interval: 10 * time.Millisecond,
		path: append([]term{{"fuse.clean_ns", 0.75}, {"fuse.faulty_ns", 0.25}}, enginePath...),
	})},
	{"fleet-net", prepareFleet(fleetSpec{
		name: "fleet-net", sites: 4000, net: true, segSeconds: 30, interval: 15 * time.Millisecond,
		path: append([]term{
			{"wire.encode_ns", perFrame},
			{"wire.decode_ns", perFrame},
			{"serve.accept_ns", perFrame},
		}, enginePath...),
	})},
	{"live-fleet", prepareLive},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last on standard output.
type result struct {
	Workload  string            `json:"workload,omitempty"` // only when one command runs several
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report renders the declared metrics from the measured values; a
// declared metric nobody measured is a bug in the benchmark.
func report(defs []def, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{v, d.unit}
	}
	return out, nil
}

func main() {
	name := flag.String("workload", "", "workload to run; empty runs all four")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 20, "measuring time per run")
	trace := flag.Int("trace", 0, "1 records spans, replays the layers and prints the per-layer metrics")
	scale := flag.String("scale", "full", "full, or tiny for a smoke test")
	repeat := flag.Int("repeat", 0, "run the suite as two sets of this many runs and compare their medians")
	flag.Parse()
	if flag.NArg() > 0 || (*scale != "full" && *scale != "tiny") || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	o := opts{seed: *seed, seconds: *seconds, tiny: *scale == "tiny"}
	if o.tiny {
		o.seconds = 0.5
	}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
	}
	if *repeat > 0 {
		if err := compareSets(selected, *repeat, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Fprintf(os.Stderr, "bench: GOMAXPROCS=%d nproc=%d seed=%d seconds=%g scale=%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), o.seed, o.seconds, *scale)
	ok := true
	var shared *env // a smoke test trains once for all its workloads
	for _, w := range selected {
		res, e, err := runWorkload(w, o, *trace == 1, shared)
		if o.tiny {
			shared = e
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		if len(selected) > 1 {
			res.Workload = w.name
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// setUp times everything before the first timed operation: training the
// monitor, recording and pre-faulting the inputs (skipped when a smoke
// test hands in the env it already has), building the workload's first
// pipeline and registering its sites. A run sets up once: training is
// 99 % of it, and a second training would take a third of the run's
// seconds from the timed phases, which need them more (README, Hazards).
func setUp(w workload, o opts, e *env) (*env, runner, float64, error) {
	t0 := time.Now()
	if e == nil {
		var err error
		if e, err = newEnv(o.seed); err != nil {
			return nil, nil, 0, err
		}
	}
	r, err := w.prepare(e, o)
	return e, r, time.Since(t0).Seconds(), err
}

// runWorkload sets up, runs and reports one workload, and returns the
// env it ran on.
func runWorkload(w workload, o opts, traced bool, shared *env) (*result, *env, error) {
	e, r, setupS, err := setUp(w, o, shared)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	// Set-up's garbage must not be charged to the timed phases.
	debug.FreeOSMemory()

	if !traced {
		out, err := r.run(nil)
		if err != nil {
			return nil, nil, err
		}
		res, err := finish(w, out, endToEnd, map[string]float64{
			"setup_s":             setupS,
			"samples_per_s":       out.samplesPerS,
			"decision_lat_p50_ms": out.latP50Ms,
			"allocs_per_sample":   out.allocsPerSample,
			"peak_rss_mb":         out.peakRSSMiB,
		})
		return res, e, err
	}

	// Traced: the same run twice at half length, spans off then on, so
	// the price of the spans is itself a row; then each layer alone.
	o.seconds /= 2
	plain, err := r.run(nil)
	if err != nil {
		return nil, nil, err
	}
	if r, err = w.prepare(e, o); err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	out, err := r.run(tr)
	if err != nil {
		return nil, nil, err
	}
	if err := tr.write(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
		return nil, nil, err
	}
	// The replays measure small loops: the workload's heap must be gone,
	// or its collections are charged to them.
	r = nil
	debug.FreeOSMemory()
	rows := out.layer
	if err := replayLayers(e, out, rows); err != nil {
		return nil, nil, fmt.Errorf("layer replay: %w", err)
	}
	rows["trace.overhead_share"] = 1 - out.samplesPerS/plain.samplesPerS
	rows["proc.cpu_s_per_msample"] = out.cpuNsPerSample / 1e3
	rows["serve.failed_share"] = ratio(float64(out.failed), float64(out.attempted))
	printLedger(os.Stderr, w.name, out, rows)
	printSelfTimes(os.Stderr, tr)
	out.errs = append(out.errs, plain.errs...)
	res, err := finish(w, out, perLayer, rows)
	return res, e, err
}

func finish(w workload, out *outcome, defs []def, vals map[string]float64) (*result, error) {
	for _, e := range out.errs {
		fmt.Fprintf(os.Stderr, "bench: %s: CHECK FAILED: %s\n", w.name, e)
	}
	m, err := report(defs, vals)
	if err != nil {
		return nil, err
	}
	return &result{Correct: len(out.errs) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: m}, nil
}
