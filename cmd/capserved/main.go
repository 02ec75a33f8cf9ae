// Command capserved is the online serving daemon: the paper's measurement
// system run as a service instead of an offline evaluation. It trains a
// coordinated monitor at the chosen scale, simulates a fleet of monitored
// sites under rotated burst schedules, streams every site's per-second
// counter samples through the serving pipeline (internal/serve), prints
// each overload/bottleneck decision as it is made, and — when -addr is
// set — exposes the pipeline's counters over HTTP as expvar JSON
// (/debug/vars), Prometheus text (/metrics), a liveness probe (/healthz),
// a readiness probe with per-site model freshness (/readyz), and the
// versioned model history (/models). Adding -pprof mounts the Go runtime
// profiler at /debug/pprof/ on the same mux for live CPU and heap
// profiling of the decision plane.
//
// With -adapt the daemon also runs the adaptive model lifecycle
// (internal/registry): the daemon pairs each decided window with the
// ground truth the simulator derives as the window closes — the truth is
// filed one sample before the decision arrives, so nothing waits on it —
// and hands the pair to the manager; drift detectors watch the labeled
// stream, and a detected drift retrains a candidate monitor in the
// background, shadow-evaluates it against the incumbent, and hot-swaps it
// into the pipeline if it wins. A deployment whose truth comes later would
// buffer its decisions until it arrives. The summary's lifecycle line
// counts the decisions labeled, left unlabeled and guarded out.
//
// Usage:
//
//	capserved -scale quick -sites 3 -duration 900   # simulate and exit
//	capserved -addr :8080 -hold                     # keep /metrics up after the run
//	capserved -admission 8                          # close the loop: shed load when overloaded
//	capserved -topology                             # sites run on the tier-DAG testbed (lb → app pool → cache → store)
//	capserved -topology -autoscale                  # grow/shrink the bottleneck pool on overload verdicts
//	capserved -level os                             # monitor on OS metrics instead of counters
//	capserved -adapt                                # retrain and hot-swap on drift
//	capserved -chaos "outage tier=db at=120 for=30" # inject telemetry faults
//	capserved -fuse -chaos "nan tier=app at=60 for=30 p=0.3" # de-noise the faulted stream
//	capserved -shards 16 -sites 1000                # spread a large fleet over more shards
//	capserved -listen :9106 -wal frames.wal         # network ingest from capagent, durable replay
//
// With -topology the simulated sites run over the reference four-pool
// topology of the tier-DAG testbed (internal/server.DAGTestbed) — load
// balancer, replicated app pool, look-aside cache, sharded store —
// instead of the two-tier app/db topology; the same monitor serves
// either, since the DAG folds to the per-slot snapshot. Adding -autoscale
// starts every pool at its minimum replica count and closes the replica
// loop: each overload verdict feeds the registry autoscaler
// (internal/registry.Autoscaler), which grows the pool with the highest
// offered-to-capacity ratio, backs off during cooldown, and drains idle
// replicas when the burst passes. Scale events are printed as they
// happen, surfaced per pool on /metrics (capserved_pool_replicas), and
// summarized per site at exit.
//
// The daemon serves through the sharded pipeline (serve.ShardedPipeline):
// sites hash onto -shards single-threaded shards (0 takes the default),
// each draining its own bounded batch queue, with decisions published off
// the ingest path and per-shard counters merged only at snapshot time.
// The simulation waits for every shard to drain before it advances the
// clock, so each site's decision stream is the same at any shard count;
// only the interleaving across sites may differ.
//
// With -fuse every ingested sample passes through the Bayesian
// counter-fusion stage (internal/fuse) before aggregation: NaN and stuck
// readings are imputed from the factor graph over physically coupled
// counters instead of dropping the sample, implausible jumps are gated,
// and each decision carries a confidence that /readyz and /metrics
// surface per site. Low-confidence windows feed the degradation ladder
// and are guarded out of the -adapt lifecycle like degraded ones.
//
// With -chaos the sample stream passes through a deterministic fault
// injector (internal/chaos) before ingestion: the flag takes a fault
// schedule in the chaos grammar (clauses separated by ";", e.g.
// "drop tier=app at=60 for=30 p=0.25; outage at=300 for=30"). The
// simulated sites are unaffected — only the telemetry the pipeline sees
// is corrupted — and every degradation-ladder transition is printed and
// surfaced on /readyz and /metrics.
//
// With -listen the daemon stops simulating sites and instead accepts
// length-prefixed frame streams from capagent processes (internal/wire),
// feeding them through the sharded pipeline's network ingest with
// per-site sequence accounting. /readyz then reports each site's
// transport staleness (wall time since its last frame, sequence gaps,
// duplicates) alongside — and distinct from — its decision staleness.
// -wal names a write-ahead sample log: every accepted frame is appended
// before its samples reach the pipeline, and on restart an existing log
// is replayed through the identical ingest path first, so a daemon
// killed mid-run recovers its exact pre-crash decision state. -agents N
// exits after N agent connections complete (bounded runs and tests);
// without it the listener holds forever.
package main

import (
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hpcap/internal/chaos"
	"hpcap/internal/core"
	"hpcap/internal/experiment"
	"hpcap/internal/fuse"
	"hpcap/internal/metrics"
	"hpcap/internal/ml/bayes"
	"hpcap/internal/pi"
	"hpcap/internal/predictor"
	"hpcap/internal/registry"
	"hpcap/internal/serve"
	"hpcap/internal/server"
	"hpcap/internal/simsite"
	"hpcap/internal/tpcw"
	"hpcap/internal/wal"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "capserved:", err)
		os.Exit(1)
	}
}

// config is the daemon's command line, one field per flag.
type config struct {
	scale, level                     string
	sites, admission, shards, agents int
	duration                         float64
	seed                             int64
	topology, autoscale, adapt, fuse bool
	pprof, hold                      bool
	chaos, addr, listen, wal         string
}

func parseConfig(args []string) (config, error) {
	var c config
	fs := flag.NewFlagSet("capserved", flag.ContinueOnError)
	fs.StringVar(&c.scale, "scale", "quick", "training scale: quick|full")
	fs.StringVar(&c.level, "level", "hpc", "metric level to monitor at: os|hpc|combined")
	fs.IntVar(&c.sites, "sites", 2, "number of simulated monitored sites")
	fs.Float64Var(&c.duration, "duration", 600, "simulated seconds to stream per site")
	fs.Int64Var(&c.seed, "seed", 1, "master random seed")
	fs.IntVar(&c.admission, "admission", 0, "admission valve worker bound under overload; 0 leaves sites uncontrolled")
	fs.BoolVar(&c.topology, "topology", false, "simulate each site on the tier-DAG testbed (load balancer, replicated app pool, cache, sharded store) instead of the two-tier app/db topology")
	fs.BoolVar(&c.autoscale, "autoscale", false, "close the replica loop: start every pool at its minimum and let the registry autoscaler grow the bottleneck pool on overload verdicts (requires -topology)")
	fs.BoolVar(&c.adapt, "adapt", false, "run the adaptive model lifecycle: pair decisions with delayed truth, retrain on drift, hot-swap winners")
	fs.StringVar(&c.chaos, "chaos", "", `fault schedule to inject into the telemetry stream, e.g. "drop tier=app at=60 for=30 p=0.25; outage at=300 for=30"`)
	fs.BoolVar(&c.fuse, "fuse", false, "de-noise ingested samples through the Bayesian counter-fusion stage before aggregation")
	fs.StringVar(&c.addr, "addr", "", "HTTP listen address for /metrics, /debug/vars, /healthz, /readyz, /models; empty disables HTTP")
	fs.BoolVar(&c.pprof, "pprof", false, "expose Go runtime profiling at /debug/pprof/ on the -addr mux (requires -addr)")
	fs.BoolVar(&c.hold, "hold", false, "keep the HTTP endpoint up after the simulated run completes (requires -addr)")
	fs.IntVar(&c.shards, "shards", 0, "ingest shards, each a queue and a goroutine in front of its own engine; 0 takes the default")
	fs.StringVar(&c.listen, "listen", "", "TCP frame-listener address for capagent connections; replaces the local simulation with network ingest")
	fs.StringVar(&c.wal, "wal", "", "write-ahead sample log: append every accepted frame before ingest, replay it on restart (requires -listen)")
	fs.IntVar(&c.agents, "agents", 0, "with -listen: exit after this many agent connections complete; 0 holds the listener open")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	return c, errors.Join(c.validate()...)
}

// validate returns one error per violated flag constraint.
func (c config) validate() []error {
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if _, ok := experiment.ScaleByName(c.scale); !ok {
		bad("unknown scale %q", c.scale)
	}
	if _, ok := metrics.LevelByName(c.level); !ok {
		bad("unknown metric level %q", c.level)
	}
	if c.sites < 1 {
		bad("need at least one site, got %d", c.sites)
	}
	if c.listen == "" && !tpcw.PositiveFinite(c.duration) {
		bad("-duration %v must be finite and positive", c.duration)
	}
	for _, err := range (serve.ShardConfig{Shards: c.shards}).Validate() {
		bad("-shards: %w", err)
	}
	if c.chaos != "" {
		if _, err := chaos.Parse(c.chaos); err != nil {
			bad("-chaos: %w", err)
		}
	}
	if c.pprof && c.addr == "" {
		bad("-pprof requires -addr")
	}
	if c.hold && c.addr == "" {
		bad("-hold requires -addr")
	}
	if c.autoscale && !c.topology {
		bad("-autoscale requires -topology")
	}
	if c.listen == "" && (c.wal != "" || c.agents != 0) {
		bad("-wal and -agents only apply with -listen")
	}
	// Network ingest replaces the local fleet: the agents own the testbeds,
	// their collectors, and any chaos, so the local-only modes have nothing
	// to act on.
	if c.listen != "" && (c.adapt || c.admission > 0 || c.chaos != "" || c.topology) {
		bad("-adapt, -admission, -chaos, and -topology need local simulation; run chaos at the agent (capagent -chaos)")
	}
	return errs
}

func run(args []string, out io.Writer) error {
	c, err := parseConfig(args)
	if err != nil {
		return err
	}
	scale, _ := experiment.ScaleByName(c.scale)
	level, _ := metrics.LevelByName(c.level)
	var inj *chaos.Injector
	if c.chaos != "" {
		sched, _ := chaos.Parse(c.chaos)
		inj = chaos.NewInjector(sched, c.seed)
	}

	// HTTP comes up before training so /readyz can report "not ready"
	// while the monitor is still being built — the window a load balancer
	// must not route through.
	state := &daemonState{}
	if c.addr != "" {
		if err := startHTTP(c.addr, state, c.pprof); err != nil {
			return err
		}
		fmt.Fprintf(out, "serving metrics on %s\n", c.addr)
	}

	fmt.Fprintf(out, "training %s monitor at %s scale...\n", level, scale.Name)
	lab := experiment.NewLab(scale)
	lab.Seed = c.seed
	monitor, err := lab.TrainMonitor(level, predictor.Config{})
	if err != nil {
		return fmt.Errorf("train monitor: %w", err)
	}
	var wb, wo experiment.Workload
	if c.listen == "" {
		// Only the local simulation needs the workload knees; in listen
		// mode the agents schedule their own sites.
		if wb, err = lab.Workload(tpcw.Browsing()); err != nil {
			return err
		}
		if wo, err = lab.Workload(tpcw.Ordering()); err != nil {
			return err
		}
	}

	// Decision and lifecycle-event prints interleave from the shard
	// goroutines and, when -adapt retrains, from the background trainer.
	var (
		outMu    sync.Mutex
		mgr      *registry.Manager
		trackers map[string]*truthTracker
		scaler   *registry.Autoscaler
		dagSites map[string]*simsite.Site

		// paired and unlabeled count -adapt's decisions that did and did
		// not find their truth; the manager counts the guarded ones.
		paired, unlabeled atomic.Uint64
	)
	serveCfg := serve.Config{
		Window: scale.Window,
		OnDecision: func(d serve.Decision) {
			bott := "-"
			if d.Prediction.Overload {
				bott = d.Prediction.Bottleneck.String()
			}
			flag := ""
			if d.Degraded {
				flag = fmt.Sprintf(" degraded(missing %d)", d.Missing)
			}
			if d.LowConfidence {
				flag += fmt.Sprintf(" low-confidence(%.2f)", d.Confidence)
			}
			outMu.Lock()
			fmt.Fprintf(out, "t=%6.0f %-8s overload=%-5t bottleneck=%-3s gpv=%v%s\n",
				d.Time, d.Site, d.Prediction.Overload, bott, d.Prediction.GPV, flag)
			outMu.Unlock()
			// The autoscaler reads the site's live pool loads; decisions
			// fire while the lockstep simulation is parked inside the
			// per-second Sync, so the testbed is quiescent here.
			if scaler != nil {
				if ds := dagSites[d.Site]; ds != nil {
					scaler.Observe(d, ds.DAG.PoolLoads())
				}
			}
			if mgr == nil {
				return
			}
			// The simulator labels each window as it closes, one sample
			// before the pipeline publishes its decision, so the truth is
			// ready by the time the decision arrives; a decision that finds
			// none is counted, never silently lost.
			if tr, ok := trackers[d.Site].take(d.Seq); ok {
				mgr.Observe(d, tr)
				paired.Add(1)
			} else {
				unlabeled.Add(1)
			}
		},
		OnSwap: func(ev serve.SwapEvent) {
			outMu.Lock()
			fmt.Fprintf(out, "hot-swap %s model v%d -> v%d from window %d\n",
				ev.Site, ev.PrevVersion, ev.Version, ev.Seq)
			outMu.Unlock()
		},
		OnHealth: func(ev serve.HealthEvent) {
			outMu.Lock()
			fmt.Fprintf(out, "health %s %s -> %s at window %d\n", ev.Site, ev.From, ev.To, ev.Seq)
			outMu.Unlock()
		},
	}
	if c.fuse {
		fc := fuse.DefaultConfig()
		serveCfg.Fuse = &fc
	}
	pipe, err := serve.NewShardedPipeline(monitor, serveCfg, serve.ShardConfig{Shards: c.shards})
	if err != nil {
		return fmt.Errorf("build pipeline: %w", err)
	}
	state.update(func(v *daemonView) { v.pipe, v.fusing = pipe, c.fuse })

	if c.listen != "" {
		return serveNetwork(out, state, pipe, c)
	}

	if c.adapt {
		mgr, err = registry.NewManager(registry.Config{
			Pipeline: pipe,
			Initial:  monitor,
			Names:    experiment.MetricNames(level),
			Train: core.Config{
				Learner: bayes.TANLearner(),
				Seed:    c.seed + 1,
				Workers: 4,
			},
			// Daemon mode: detector and lifecycle thresholds at their
			// conservative defaults, retraining off the serving path.
			Background: true,
			OnEvent: func(e registry.Event) {
				outMu.Lock()
				fmt.Fprintf(out, "lifecycle: %s\n", e)
				outMu.Unlock()
			},
		})
		if err != nil {
			return fmt.Errorf("build lifecycle manager: %w", err)
		}
		state.update(func(v *daemonView) { v.mgr = mgr })
		trackers = make(map[string]*truthTracker)
	}

	// Topology mode swaps the fleet onto the reference tier DAG; with
	// -autoscale every pool starts at its minimum so the burst schedule
	// forces the autoscaler to find the right size.
	var topo server.TopologyConfig
	var slotOf map[string]server.TierID
	if c.topology {
		topo = server.DefaultTopologyConfig()
		if c.autoscale {
			for i := range topo.Pools {
				if topo.Pools[i].MinReplicas > 0 {
					topo.Pools[i].Replicas = topo.Pools[i].MinReplicas
				}
			}
		}
		slotOf = make(map[string]server.TierID, len(topo.Pools))
		for _, pc := range topo.Pools {
			slotOf[pc.Name] = pc.Slot
		}
	}
	if c.autoscale {
		dagSites = make(map[string]*simsite.Site)
		scaler, err = registry.NewAutoscaler(registry.AutoscalerConfig{
			Scaler: fleetScaler{dagSites},
			OnScale: func(e registry.ScaleEvent) {
				pipe.NoteScale(e.Site, slotOf[e.Pool], e.Replicas, e.Up)
				outMu.Lock()
				fmt.Fprintf(out, "autoscale: %s\n", e)
				outMu.Unlock()
			},
		})
		if err != nil {
			return fmt.Errorf("build autoscaler: %w", err)
		}
	}

	fleet := make([]*simsite.Site, c.sites)
	names := make([]string, c.sites)
	for i := range fleet {
		name := fmt.Sprintf("site-%d", i+1)
		var s *simsite.Site
		var err error
		if c.topology {
			s, err = simsite.NewDAG(name, topo, level, i, wb, wo, c.seed, c.duration)
		} else {
			s, err = simsite.New(name, lab.Server, level, i, wb, wo, c.seed, c.duration)
		}
		if err != nil {
			return fmt.Errorf("build %s: %w", name, err)
		}
		if dagSites != nil {
			dagSites[name] = s
		}
		if c.admission > 0 {
			s.TB.SetAdmission(pipe.AdmissionValve(name, c.admission))
		}
		if err := s.TB.Start(); err != nil {
			return err
		}
		fleet[i] = s
		names[i] = name
		if c.adapt {
			if trackers[name], err = newTruthTracker(scale.Window); err != nil {
				return err
			}
		}
	}
	state.update(func(v *daemonView) { v.sites = names })

	// Advance all sites in 1-second lockstep, streaming every tier's
	// sample into the pipeline as it is collected — through the fault
	// injector first when -chaos is set.
	ingest := func(s serve.Sample) {
		if inj == nil {
			pipe.Ingest(s)
			return
		}
		for _, out := range inj.Apply(s) {
			pipe.Ingest(out)
		}
	}
	for elapsed := 0.0; elapsed < c.duration; elapsed++ {
		for _, s := range fleet {
			snap := s.TB.RunInterval(1)
			for tier := server.TierID(0); tier < server.NumTiers; tier++ {
				ingest(serve.Sample{
					Site:   s.Name,
					Tier:   tier,
					Time:   snap.Time,
					Values: s.Collect(tier, snap),
				})
			}
			if tk := trackers[s.Name]; tk != nil {
				tk.observe(snap)
			}
		}
		// Drain every shard before advancing the clock, so each second's
		// decisions land before the simulation moves on.
		pipe.Sync()
	}
	if inj != nil {
		for _, s := range inj.Drain() {
			pipe.Ingest(s)
		}
	}
	pipe.Flush()
	if mgr != nil {
		mgr.Wait()
	}
	pipe.Close()

	printSummary(out, pipe, c.fuse)
	if inj != nil {
		fs := inj.Stats()
		fmt.Fprintf(out, "chaos    offered=%d emitted=%d injected=%d dropped=%d nan=%d stuck=%d stalled=%d dup=%d skew=%d outage=%d\n",
			fs.Offered, fs.Emitted, fs.Injected(), fs.Dropped, fs.Corrupted, fs.Frozen,
			fs.Stalled, fs.Duplicated, fs.Skewed, fs.Outaged)
	}
	if c.admission > 0 {
		for _, s := range fleet {
			arrivals, completions, rejections, inFlight := s.TB.Conservation()
			fmt.Fprintf(out, "%-8s arrivals=%d completions=%d rejections=%d in-flight=%d\n",
				s.Name, arrivals, completions, rejections, inFlight)
		}
	}
	if scaler != nil {
		for _, s := range fleet {
			ups, downs := s.DAG.ScaleEvents()
			var pools string
			for _, pc := range topo.Pools {
				pools += fmt.Sprintf(" %s=%d", pc.Name, s.DAG.Replicas(pc.Name))
			}
			fmt.Fprintf(out, "%-8s autoscale ups=%d downs=%d replicas:%s bottleneck=%s\n",
				s.Name, ups, downs, pools, s.DAG.Bottleneck())
		}
	}
	if mgr != nil {
		fmt.Fprintln(out)
		for _, s := range fleet {
			for _, v := range mgr.Store().History(s.Name) {
				fmt.Fprintf(out, "%-8s model v%d reason=%s windows=%d swapped=%t\n",
					s.Name, v.ID, v.Reason, v.Windows, v.Swapped)
			}
		}
		g := mgr.Guarded()
		fmt.Fprintf(out, "lifecycle labeled=%d unlabeled=%d guarded=%d\n", paired.Load()-g, unlabeled.Load(), g)
	}

	if c.hold {
		fmt.Fprintln(out, "run complete; holding HTTP endpoint (interrupt to exit)")
		select {}
	}
	return nil
}

// printSummary writes the per-site summary lines (plus each site's fusion
// line under -fuse) and the shard totals, once the pipeline has drained.
func printSummary(out io.Writer, pipe *serve.ShardedPipeline, fusing bool) {
	fmt.Fprintln(out)
	for _, st := range pipe.Stats() {
		fmt.Fprintf(out, "%-8s windows=%d degraded=%d dropped=%d overloads=%d disagreement=%.1f%% mean-predict=%s health=%s transitions=%d\n",
			st.Site, st.WindowsDecided, st.WindowsDegraded, st.WindowsDropped,
			st.Overloads, st.DisagreementRate()*100, st.MeanPredictLatency(),
			st.Health, st.HealthChanges())
		if fusing {
			fmt.Fprintf(out, "%-8s fusion fused=%d imputed=%d gated=%d lowconf=%d confidence=%.3f\n",
				st.Site, st.SamplesFused, st.FuseImputed, st.FuseGated,
				st.WindowsLowConfidence, st.FuseConfidence)
		}
	}
	tot := pipe.Totals()
	fmt.Fprintf(out, "shards   n=%d enqueued=%d processed=%d batches=%d stalls=%d rejected-closed=%d rejected-ref=%d\n",
		pipe.Shards(), tot.Enqueued, tot.Processed, tot.Batches,
		tot.Stalls, tot.RejectedClosed, tot.RejectedRef)
}

// fleetScaler routes the registry autoscaler's replica actions to the
// addressed site's DAG testbed. Lookups miss (and the action no-ops) for
// names the fleet does not carry.
type fleetScaler struct{ sites map[string]*simsite.Site }

func (f fleetScaler) AddReplica(site, pool string) (int, bool) {
	if s := f.sites[site]; s != nil && s.DAG != nil {
		return s.DAG.AddReplica(pool)
	}
	return 0, false
}

func (f fleetScaler) RemoveReplica(site, pool string) (int, bool) {
	if s := f.sites[site]; s != nil && s.DAG != nil {
		return s.DAG.RemoveReplica(pool)
	}
	return 0, false
}

// serveNetwork is the -listen half of the daemon: frames arrive from
// capagent processes over TCP instead of a local simulation loop. When
// -wal is set, every accepted frame is appended to the write-ahead
// sample log strictly before its samples reach the pipeline, and an
// existing log is replayed through the same ingest path first — so a
// daemon killed mid-storm restarts into exactly the decision state it
// crashed with, then continues from the agents' live streams.
func serveNetwork(out io.Writer, state *daemonState, pipe *serve.ShardedPipeline, c config) error {
	ing := serve.NewIngest(pipe)
	state.update(func(v *daemonView) { v.ingest = ing })

	var onFrame func(payload []byte) error
	if c.wal != "" {
		log, recovered, err := wal.Open(c.wal, wal.Config{})
		if err != nil {
			return fmt.Errorf("wal %s: %w", c.wal, err)
		}
		defer log.Close()
		if recovered > 0 {
			lane := ing.Conn()
			undecodable := 0
			n, rerr := wal.Replay(c.wal, wal.Config{}, func(payload []byte) error {
				if lane.AcceptPayload(payload, nil) != nil {
					undecodable++
				}
				return nil
			})
			if rerr != nil {
				return fmt.Errorf("wal replay %s: %w", c.wal, rerr)
			}
			lane.Close()
			pipe.Sync()
			fmt.Fprintf(out, "wal: replayed %d frame(s) from %s (%d undecodable)\n", n, c.wal, undecodable)
		}
		onFrame = log.Append
	}

	fsrv, err := serve.NewFrameServer(serve.ListenConfig{Addr: c.listen}, ing, onFrame)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "listening for agents on %s\n", fsrv.Addr())

	if c.agents == 0 {
		// Daemon mode: serve until the process is killed.
		select {}
	}
	fsrv.WaitConns(uint64(c.agents))
	if cerr := fsrv.Close(); cerr != nil {
		fmt.Fprintf(out, "listener close: %v\n", cerr)
	}
	// Decide what the final partial windows support, then stop the shards.
	pipe.Flush()
	pipe.Close()

	printSummary(out, pipe, c.fuse)
	for _, tr := range ing.TransportStats() {
		fmt.Fprintf(out, "%-8s transport frames=%d samples=%d dup=%d reordered=%d gaps=%d lost=%d last-seq=%d last-frame-t=%.0f\n",
			tr.Site, tr.Frames, tr.Samples, tr.DupFrames, tr.OutOfOrder,
			tr.SeqGaps, tr.LostFrames, tr.LastSeq, tr.LastFrameTime)
	}
	ss := fsrv.Stats()
	fmt.Fprintf(out, "listener conns=%d frames=%d decode-errors=%d read-errors=%d log-errors=%d\n",
		ss.ConnsClosed, ss.Frames, ss.DecodeErrors, ss.ReadErrors, ss.LogErrors)
	return nil
}

// truthTracker holds one site's per-window ground truth, derived by
// pi.Window as each window closes, until the pipeline's decision on that
// window arrives. Windows align with the pipeline's: window seq covers the
// samples in (seq·W, (seq+1)·W].
type truthTracker struct {
	win *pi.Window
	seq int64
	// mu guards ready: take runs on shard goroutines (decision
	// callbacks) while observe runs on the simulation loop.
	mu    sync.Mutex
	ready map[int64]pi.Truth
}

func newTruthTracker(window int) (*truthTracker, error) {
	win, err := pi.NewWindow(window)
	if err != nil {
		return nil, err
	}
	return &truthTracker{win: win, ready: make(map[int64]pi.Truth)}, nil
}

// observe folds one 1-second snapshot in and files the window's truth
// when it closes.
func (t *truthTracker) observe(snap server.Snapshot) {
	tr, ok := t.win.Add(snap)
	if !ok {
		return
	}
	t.mu.Lock()
	t.ready[t.seq] = tr
	t.mu.Unlock()
	t.seq++
}

// take removes and returns the truth for a window, if labeled, and
// discards the truth of every earlier window: those were dropped (gaps in
// Decision.Seq), get no decision, and would otherwise never be taken.
func (t *truthTracker) take(seq int64) (pi.Truth, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tr, ok := t.ready[seq]
	for s := range t.ready {
		if s <= seq {
			delete(t.ready, s)
		}
	}
	return tr, ok
}

// daemonState is what the HTTP endpoints read. Its view fills in as the
// run progresses: the pipeline exists only after training, the fleet after
// the sites are built, the manager only under -adapt, and the network
// ingest only under -listen.
type daemonState struct {
	mu sync.Mutex
	v  daemonView
}

// daemonView is one consistent read of the daemon's state. Its sites slice
// is never mutated once set.
type daemonView struct {
	pipe   *serve.ShardedPipeline
	mgr    *registry.Manager
	sites  []string
	ingest *serve.Ingest
	fusing bool
}

func (s *daemonState) update(f func(*daemonView)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f(&s.v)
}

func (s *daemonState) view() daemonView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.v
}

// siteReadiness is one site's entry in the /readyz report.
type siteReadiness struct {
	Site  string `json:"site"`
	Ready bool   `json:"ready"`
	// Health is the site's degradation-ladder state (healthy, degraded,
	// or stale); a stale site stays "ready" because its admission valve
	// has already failed open.
	Health string `json:"health"`
	// ModelVersion is the site's active model; LastSwapSeq the first
	// window it decided (-1 while the initial model has never been
	// replaced).
	ModelVersion int64 `json:"model_version"`
	LastSwapSeq  int64 `json:"last_swap_seq"`
	// Decision freshness: the latest decided window, its stream
	// timestamp, and how far it lags the freshest site in the fleet.
	LastDecisionSeq  int64   `json:"last_decision_seq"`
	LastDecisionTime float64 `json:"last_decision_time"`
	StalenessSeconds float64 `json:"staleness_seconds"`
	// Transport is present only under -listen: the frame-level view of
	// the site's feed, kept distinct from sample staleness above. A site
	// can be transport-fresh yet decision-stale (agent up, collectors
	// wedged) or transport-stale yet deciding (link down, windows
	// coasting) — the two page different people.
	Transport *transportReadiness `json:"transport,omitempty"`
	// Fusion is present only under -fuse: the counter-fusion view of the
	// site's telemetry quality. Confidence is the mean fusion confidence
	// of the most recent decided window; LowConfidenceWindows counts the
	// windows decided mostly from imputed values.
	Fusion *fusionReadiness `json:"fusion,omitempty"`
}

// fusionReadiness is the counter-fusion half of a site's /readyz entry.
type fusionReadiness struct {
	Confidence           float64 `json:"confidence"`
	SamplesFused         uint64  `json:"samples_fused"`
	Imputed              uint64  `json:"imputed"`
	Gated                uint64  `json:"gated"`
	LowConfidenceWindows uint64  `json:"low_confidence_windows"`
}

// transportReadiness is the frame-level half of a site's /readyz entry.
type transportReadiness struct {
	LastSeq       uint64  `json:"last_seq"`
	LastFrameTime float64 `json:"last_frame_time"`
	// StalenessSeconds is wall time since the last frame arrived —
	// link-level freshness, unrelated to the stream's own clock.
	StalenessSeconds float64 `json:"staleness_seconds"`
	LostFrames       uint64  `json:"lost_frames"`
	DupFrames        uint64  `json:"dup_frames"`
	OutOfOrder       uint64  `json:"out_of_order"`
}

// readinessReport is the /readyz body. Unlike /healthz (pure liveness),
// readiness requires a trained model actively deciding windows for every
// site in the fleet.
type readinessReport struct {
	Ready  bool            `json:"ready"`
	Reason string          `json:"reason,omitempty"`
	Sites  []siteReadiness `json:"sites,omitempty"`
}

func (s *daemonState) readiness() readinessReport {
	v := s.view()
	if v.pipe == nil {
		return readinessReport{Reason: "training monitor"}
	}
	sites := v.sites
	// Under -listen the fleet is whatever sites the agents have shipped
	// frames for: the transport table (already name-ordered) is their
	// registry.
	var transports map[string]serve.SiteTransport
	if v.ingest != nil {
		ts := v.ingest.TransportStats()
		transports = make(map[string]serve.SiteTransport, len(ts))
		for _, tr := range ts {
			transports[tr.Site] = tr
			sites = append(sites, tr.Site)
		}
		if len(sites) == 0 {
			return readinessReport{Reason: "no agent has delivered a frame"}
		}
	}
	if len(sites) == 0 {
		return readinessReport{Reason: "fleet not started"}
	}
	rep := readinessReport{Ready: true}
	stats := make([]serve.SiteStats, len(sites))
	var latest float64
	for i, name := range sites {
		st, ok := v.pipe.SiteStats(name)
		if !ok {
			st.LastDecisionSeq = -1
			st.LastSwapSeq = -1
		}
		stats[i] = st
		if st.LastDecisionTime > latest {
			latest = st.LastDecisionTime
		}
	}
	for i, name := range sites {
		st := stats[i]
		sr := siteReadiness{
			Site:             name,
			Ready:            st.LastDecisionSeq >= 0,
			Health:           st.Health.String(),
			ModelVersion:     st.ModelVersion,
			LastSwapSeq:      st.LastSwapSeq,
			LastDecisionSeq:  st.LastDecisionSeq,
			LastDecisionTime: st.LastDecisionTime,
		}
		if sr.Ready {
			sr.StalenessSeconds = latest - st.LastDecisionTime
		} else {
			rep.Ready = false
			rep.Reason = "site awaiting first decision"
		}
		if v.fusing {
			sr.Fusion = &fusionReadiness{
				Confidence:           st.FuseConfidence,
				SamplesFused:         st.SamplesFused,
				Imputed:              st.FuseImputed,
				Gated:                st.FuseGated,
				LowConfidenceWindows: st.WindowsLowConfidence,
			}
		}
		if tr, ok := transports[name]; ok {
			sr.Transport = &transportReadiness{
				LastSeq:          tr.LastSeq,
				LastFrameTime:    tr.LastFrameTime,
				StalenessSeconds: time.Since(tr.LastFrameAt).Seconds(),
				LostFrames:       tr.LostFrames,
				DupFrames:        tr.DupFrames,
				OutOfOrder:       tr.OutOfOrder,
			}
		}
		rep.Sites = append(rep.Sites, sr)
	}
	return rep
}

// modelInfo is one version in the /models report — registry.Version
// without the trained monitor itself.
type modelInfo struct {
	ID          int64   `json:"id"`
	Reason      string  `json:"reason"`
	Windows     int     `json:"windows"`
	CandidateBA float64 `json:"candidate_ba"`
	IncumbentBA float64 `json:"incumbent_ba"`
	Swapped     bool    `json:"swapped"`
	SwapSeq     int64   `json:"swap_seq"`
}

func (s *daemonState) modelHistory() map[string][]modelInfo {
	sv := s.view()
	out := make(map[string][]modelInfo)
	if sv.mgr == nil {
		return out
	}
	for _, name := range sv.sites {
		for _, v := range sv.mgr.Store().History(name) {
			out[name] = append(out[name], modelInfo{
				ID:          v.ID,
				Reason:      v.Reason,
				Windows:     v.Windows,
				CandidateBA: v.CandidateBA,
				IncumbentBA: v.IncumbentBA,
				Swapped:     v.Swapped,
				SwapSeq:     v.SwapSeq,
			})
		}
	}
	return out
}

// expvarOnce guards the process-wide expvar registration; currentState
// retargets it when run is invoked more than once (tests).
var (
	expvarOnce   sync.Once
	currentState atomic.Pointer[daemonState]
)

// newMux builds the daemon's HTTP surface over the (still-filling) state.
// withPprof additionally mounts the Go runtime profiler under
// /debug/pprof/ — opt-in because CPU profiles and heap dumps are not
// something a fleet daemon should hand out by default.
func newMux(st *daemonState, withPprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		v := st.view()
		if v.pipe == nil {
			http.Error(w, "monitor still training", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := v.pipe.WriteMetrics(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if v.ingest != nil {
			if err := v.ingest.WriteTransportMetrics(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		rep := st.readiness()
		w.Header().Set("Content-Type", "application/json")
		if !rep.Ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(rep)
	})
	mux.HandleFunc("/models", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(st.modelHistory())
	})
	return mux
}

// startHTTP exposes the daemon over HTTP: Prometheus text at /metrics,
// expvar JSON at /debug/vars, liveness at /healthz, readiness with
// per-site model freshness at /readyz, the model history at /models, and
// (with -pprof) the runtime profiler at /debug/pprof/.
func startHTTP(addr string, st *daemonState, withPprof bool) error {
	currentState.Store(st)
	expvarOnce.Do(func() {
		expvar.Publish("capserved", expvar.Func(func() any {
			if s := currentState.Load(); s != nil {
				if pipe := s.view().pipe; pipe != nil {
					return pipe.Stats()
				}
			}
			return nil
		}))
	})
	// Bind synchronously so a bad -addr fails the run instead of being
	// logged from a goroutine; serving itself lasts the process lifetime.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("http: %w", err)
	}
	go func() { _ = (&http.Server{Handler: newMux(st, withPprof)}).Serve(ln) }()
	return nil
}
