// Command capagent is the edge half of the distributed deployment: it
// runs a slice of the simulated site fleet next to the (simulated)
// servers, samples every tier once per second through the same
// collectors capserved uses in-process, and ships the samples to a
// capserved frame listener (-listen) as length-prefixed, sequenced,
// batched frames over TCP (internal/wire).
//
// The agent is built to survive a bad network without lying about it:
// frames queue in a bounded buffer whose overflow evicts the *oldest*
// frame, each frame gets bounded write retries with exponential
// backoff, and a frame that exhausts its retries is dropped and
// counted. Every loss surfaces at the server as a sequence gap, which
// feeds the site's transport staleness and degradation ladder — a
// flapping link degrades decisions, it never wedges the sampling loop.
//
// Site identity is positional: -first/-sites select a contiguous slice
// of the same fleet capserved would simulate locally, so
//
//	capagent -first 1 -sites 2    # site-1, site-2
//	capagent -first 3 -sites 2    # site-3, site-4
//
// together reproduce, sample for sample, the four-site fleet a lone
// "capserved -sites 4" generates. -scale, -level, -seed, and -duration
// must match the server's for the decision streams to line up.
//
// With -chaos the schedule's collector faults (stall, outage) make the
// per-tier reads fail deterministically — exercised through the bounded
// retry-with-fallback path (metrics.NewRetryCollector), so a wedged
// collector yields stale-but-finite vectors — while its wire faults
// (partition, reorder, dupframe) corrupt the frame stream between the
// framing loop and the sender (chaos.LinkInjector). Both layers are
// pure functions of (schedule, seed, stream), so a chaotic run replays
// byte-for-byte.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"hpcap/internal/chaos"
	"hpcap/internal/experiment"
	"hpcap/internal/metrics"
	"hpcap/internal/server"
	"hpcap/internal/simsite"
	"hpcap/internal/tpcw"
	"hpcap/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "capagent:", err)
		os.Exit(1)
	}
}

// agentSite is one monitored site plus its framing state.
type agentSite struct {
	site    *simsite.Site
	seq     uint64
	pending []wire.Sample
	frames  uint64
	retry   []*metrics.RetryCollector
}

func run(args []string, out io.Writer) error {
	def := wire.DefaultAgentConfig()
	fs := flag.NewFlagSet("capagent", flag.ContinueOnError)
	addr := fs.String("addr", "", "capserved frame listener address to ship samples to (required)")
	sites := fs.Int("sites", 1, "number of consecutive sites this agent runs")
	first := fs.Int("first", 1, "1-based index of the agent's first site (site-<first>)")
	scaleName := fs.String("scale", "quick", "workload scale: quick|full (must match the server)")
	levelName := fs.String("level", "hpc", "metric level to collect: os|hpc|combined (must match the server)")
	duration := fs.Float64("duration", 600, "simulated seconds to stream per site")
	seed := fs.Int64("seed", 1, "master random seed (must match the server)")
	chaosSpec := fs.String("chaos", "", `fault schedule: collector faults (stall, outage) fail reads, wire faults (partition, reorder, dupframe) corrupt the frame stream`)
	frameSamples := fs.Int("frame-samples", def.FrameSamples, "fused scrapes batched per frame")
	queueFrames := fs.Int("queue", def.QueueFrames, "send-queue capacity in frames; overflow evicts the oldest")
	sendRetries := fs.Int("send-retries", def.MaxRetries, "extra write attempts per batch of queued frames before dropping it")
	collectRetries := fs.Int("collect-retries", 2, "extra read attempts per collector before falling back to the last good vector")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("-addr is required (the capserved -listen address)")
	}
	if *sites < 1 || *first < 1 {
		return fmt.Errorf("-sites and -first must be >= 1, got %d and %d", *sites, *first)
	}

	scale, ok := experiment.ScaleByName(*scaleName)
	if !ok {
		return fmt.Errorf("unknown scale %q", *scaleName)
	}
	level, ok := metrics.LevelByName(*levelName)
	if !ok {
		return fmt.Errorf("unknown metric level %q", *levelName)
	}

	var (
		sched chaos.Schedule
		link  *chaos.LinkInjector
	)
	if *chaosSpec != "" {
		var err error
		sched, err = chaos.Parse(*chaosSpec)
		if err != nil {
			return fmt.Errorf("-chaos: %w", err)
		}
		link = chaos.NewLinkInjector(sched, *seed)
	}

	// The agent needs the workload knees to schedule its sites' bursts,
	// but never a trained monitor — deciding is the server's job.
	lab := experiment.NewLab(scale)
	lab.Seed = *seed
	wb, err := lab.Workload(tpcw.Browsing())
	if err != nil {
		return err
	}
	wo, err := lab.Workload(tpcw.Ordering())
	if err != nil {
		return err
	}

	cfg := wire.AgentConfig{
		FrameSamples: *frameSamples,
		QueueFrames:  *queueFrames,
		MaxRetries:   *sendRetries,
	}
	if errs := cfg.Validate(); len(errs) > 0 {
		return errors.Join(errs...)
	}
	sender, err := wire.NewSender(*addr, cfg)
	if err != nil {
		return err
	}

	fleet := make([]*agentSite, *sites)
	for i := range fleet {
		n := *first + i
		name := fmt.Sprintf("site-%d", n)
		s, err := simsite.New(name, lab.Server, level, n-1, wb, wo, *seed, *duration)
		if err != nil {
			return fmt.Errorf("build %s: %w", name, err)
		}
		as := &agentSite{site: s}
		if len(sched.Faults) > 0 {
			// Collector faults surface as failed reads; the retry wrapper
			// bounds them and falls back to the last good vector, so the
			// sampling loop never stalls and never ships NaN.
			s.WrapCollectors(func(c metrics.Collector) metrics.Collector {
				rc := metrics.NewRetryCollector(chaos.NewFlakyCollector(c, sched), *collectRetries)
				as.retry = append(as.retry, rc)
				return rc
			})
		}
		if err := s.TB.Start(); err != nil {
			return err
		}
		fleet[i] = as
	}

	ship := func(as *agentSite) {
		if len(as.pending) == 0 {
			return
		}
		f := wire.Frame{
			Site:    as.site.Name,
			Seq:     as.seq,
			Samples: as.pending,
		}
		as.seq++
		as.frames++
		as.pending = nil
		if link == nil {
			sender.Send(&f)
			return
		}
		outs := link.Apply(f)
		for i := range outs {
			sender.Send(&outs[i])
		}
	}

	fmt.Fprintf(out, "shipping %d site(s) from site-%d to %s (%d scrapes/frame)\n",
		*sites, *first, *addr, cfg.FrameSamples)
	for elapsed := 0.0; elapsed < *duration; elapsed++ {
		for _, as := range fleet {
			snap := as.site.TB.RunInterval(1)
			var s wire.Sample
			s.Time = snap.Time
			for tier := server.TierID(0); tier < server.NumTiers; tier++ {
				s.Vecs[tier] = as.site.Collect(tier, snap)
			}
			as.pending = append(as.pending, s)
			if len(as.pending) >= cfg.FrameSamples {
				ship(as)
			}
		}
	}
	for _, as := range fleet {
		ship(as)
	}
	if link != nil {
		outs := link.Drain()
		for i := range outs {
			sender.Send(&outs[i])
		}
	}
	sender.Close()

	for _, as := range fleet {
		var retries, failures uint64
		for _, rc := range as.retry {
			retries += rc.Retries()
			failures += rc.Failures()
		}
		fmt.Fprintf(out, "%-8s frames=%d collect-retries=%d collect-fallbacks=%d\n",
			as.site.Name, as.frames, retries, failures)
	}
	st := sender.Stats()
	fmt.Fprintf(out, "sender   enqueued=%d sent=%d retries=%d dropped=%d (full=%d retry=%d oversize=%d) dials=%d dial-failures=%d write-failures=%d\n",
		st.Enqueued, st.Sent, st.Retries, st.Dropped(), st.DroppedFull, st.DroppedRetry,
		st.DroppedOversize, st.Dials, st.DialFailures, st.WriteFailures)
	if link != nil {
		ls := link.Stats()
		fmt.Fprintf(out, "link     offered=%d emitted=%d injected=%d partitioned=%d reordered=%d dupframes=%d\n",
			ls.Offered, ls.Emitted, ls.Injected(), ls.Partitioned, ls.Reordered, ls.DupFrames)
	}
	return nil
}
