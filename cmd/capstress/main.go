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
//	capstress -mix ordering-flash -ebs 400 -duration 600
//	capstress -ebs 300 -chaos "nan tier=app at=120 for=60 p=0.2"
//
// -mix takes the four canonical mixes, each optionally suffixed "-flash"
// for its flash-crowd variant (tpcw.MixByName).
//
// With -chaos the run also samples per-tier hardware counters through the
// deterministic fault injector (internal/chaos), with the flaky reads
// hardened by the bounded-retry collector the serving stack uses: the
// table gains a faults column counting injections per window, and the
// totals report the injector's and retrier's counters. The testbed itself
// is never faulted — chaos corrupts telemetry, not traffic.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hpcap/internal/chaos"
	"hpcap/internal/experiment"
	"hpcap/internal/metrics"
	"hpcap/internal/pi"
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
	mixName := fs.String("mix", "shopping", "traffic mix: browsing|shopping|ordering|unknown, each optionally suffixed -flash")
	ebs := fs.Int("ebs", 200, "steady emulated-browser population")
	ramp := fs.String("ramp", "", "ramp start:end:steps (overrides -ebs)")
	traffic := fs.String("traffic", "", `traffic program (overrides -mix/-ebs/-ramp), e.g. "steady mix=browsing base=300 for=240; flash base=300 peak=2000 for=300 hold=120 decay=60"`)
	step := fs.Float64("step", 120, "ramp step duration, seconds")
	duration := fs.Float64("duration", 1800, "steady run duration, seconds")
	window := fs.Int("window", 30, "reporting window, seconds")
	seed := fs.Int64("seed", 1, "random seed")
	chaosSpec := fs.String("chaos", "", `fault schedule to inject into the counter stream, e.g. "nan tier=app at=120 for=60 p=0.2"`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	win, err := pi.NewWindow(*window)
	if err != nil {
		return fmt.Errorf("-window: %w", err)
	}

	mix, ok := tpcw.MixByName(*mixName)
	if !ok {
		return fmt.Errorf("unknown mix %q", *mixName)
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
		if steps < 1 {
			return fmt.Errorf("bad -ramp %q: steps must be at least 1", *ramp)
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
		var tr pi.Truth
		var last server.Snapshot
		var appMiss, dbMiss, appDil, dbDil float64
		for done := false; !done; {
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
			appMiss += s.Tiers[server.TierApp].MeanMissRatio
			dbMiss += s.Tiers[server.TierDB].MeanMissRatio
			appDil += s.Tiers[server.TierApp].MeanDilation
			dbDil += s.Tiers[server.TierDB].MeanDilation
			last = s
			tr, done = win.Add(s)
		}
		w := float64(*window)
		state := "ok"
		if tr.Overload == 1 {
			state = "OVER"
		}
		line := fmt.Sprintf("%8.0f %5d %8.1f %9.3f %7d | %6.2f %6d %7.3f %7.2f | %6.2f %6d %7.3f %7.2f | %5s",
			t+w, tr.ActiveEBs, tr.Throughput, tr.MeanRT, last.InFlight,
			tr.Util[server.TierApp], last.Tiers[server.TierApp].RunQueue, appMiss/w, appDil/w,
			tr.Util[server.TierDB], last.Tiers[server.TierDB].RunQueue, dbMiss/w, dbDil/w,
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
