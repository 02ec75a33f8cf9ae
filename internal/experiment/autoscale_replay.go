package experiment

import (
	"fmt"
	"strings"

	"hpcap/internal/core"
	"hpcap/internal/metrics"
	"hpcap/internal/ml/bayes"
	"hpcap/internal/registry"
	"hpcap/internal/serve"
	"hpcap/internal/server"
	"hpcap/internal/tpcw"
)

// AutoscaleReplay is the result of the closed-loop capacity experiment: a
// flash crowd slams a DAG-topology site twice under identical seeds, once
// protected only by the admission valve (shedding load) and once with the
// registry's Autoscaler additionally growing the bottleneck pool through
// the live testbed. Scaling serves strictly more requests than shedding —
// the measurement layer is the same, only the actuator differs. The
// transcript is a pure function of the lab's seed, bit-identical for any
// training worker count and any shard count.
type AutoscaleReplay struct {
	// Log is the golden-pinned transcript of both arms.
	Log string
	// AdmissionServed and AutoscaleServed are the completed-request totals
	// of the valve-only and the valve+autoscaler arm.
	AdmissionServed, AutoscaleServed int
	// Ups and Downs are the autoscaler's lifetime action counts.
	Ups, Downs uint64
}

// autoscaleReplaySeed offsets the autoscale trace away from every other
// seed the lab derives (training 0/1, test 100s, interleave 104, drift
// 300, chaos 400, fusion 500).
const autoscaleReplaySeed = 600

// autoscaleSchedule composes the flash-crowd scenario: a healthy lead-in
// below the knee, a geometric flash crowd cresting at more than twice the
// single-replica knee, and a quiet recovery tail in which the autoscaler
// can drain what it grew.
func autoscaleSchedule(w Workload, s Scale) tpcw.Schedule {
	win := float64(s.Window)
	return tpcw.Concat(
		tpcw.Steady(w.Mix, frac(w.Knee, 0.75), 4*win),
		tpcw.FlashCrowd(w.Mix, frac(w.Knee, 0.75), frac(w.Knee, 2.2),
			4*win, 5*win, 2*win, 6),
		tpcw.Steady(w.Mix, frac(w.Knee, 0.55), 6*win),
	)
}

// autoscaleTopology widens the degenerate two-tier DAG so both pools have
// headroom to grow: one replica each to start, the app pool up to six and
// the store up to four. The autoscaler, not the topology, decides which
// pool the flash crowd actually bottlenecks.
func autoscaleTopology(cfg server.Config) server.TopologyConfig {
	topo := server.TwoTierTopology(cfg)
	topo.Pools[0].MinReplicas = 1
	topo.Pools[0].MaxReplicas = 6
	topo.Pools[1].MinReplicas = 1
	topo.Pools[1].MaxReplicas = 4
	return topo
}

// testbedScaler adapts the single-site DAG testbed to the registry's
// site-aware Scaler surface.
type testbedScaler struct{ tb *server.DAGTestbed }

func (s testbedScaler) AddReplica(_, pool string) (int, bool)    { return s.tb.AddReplica(pool) }
func (s testbedScaler) RemoveReplica(_, pool string) (int, bool) { return s.tb.RemoveReplica(pool) }

// scaleServePipeline is the serving surface the closed loop drives,
// satisfied by both the unsharded and the sharded pipeline.
type scaleServePipeline interface {
	Ingest(serve.Sample)
	Flush()
	SiteStats(string) (serve.SiteStats, bool)
	NoteScale(string, server.TierID, int, bool)
	AdmissionValve(string, int) server.AdmissionFunc
}

// RunAutoscaleReplay runs the flash-crowd autoscaling experiment through
// the unsharded pipeline. workers bounds the training fan-out only; the
// transcript is bit-identical for any value.
func (l *Lab) RunAutoscaleReplay(workers int) (*AutoscaleReplay, error) {
	return l.runAutoscaleReplay(workers, 0)
}

// RunAutoscaleReplaySharded runs the same experiment through the sharded
// serving pipeline; the transcript is byte-identical to the unsharded
// run's for any shard count.
func (l *Lab) RunAutoscaleReplaySharded(workers, shards int) (*AutoscaleReplay, error) {
	if shards < 1 {
		shards = 1
	}
	return l.runAutoscaleReplay(workers, shards)
}

// runAutoscaleReplay is the shared body; shards == 0 selects the
// unsharded pipeline.
func (l *Lab) runAutoscaleReplay(workers, shards int) (*AutoscaleReplay, error) {
	const level = metrics.LevelHPC
	const site = "site"
	const valveBound = 4
	wb, err := l.Workload(tpcw.Browsing())
	if err != nil {
		return nil, err
	}
	btr, err := l.TrainingTrace(tpcw.Browsing())
	if err != nil {
		return nil, err
	}
	names := btr.Names(level)
	mon, err := core.Train(level, names, []core.TrainingSet{trainingSetOf("browsing", btr, level)}, core.Config{
		Learner:  bayes.TANLearner(),
		Synopsis: core.DefaultSynopsisConfig(l.Seed),
		Workers:  workers,
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: train autoscale monitor: %w", err)
	}

	topo := autoscaleTopology(l.Server)
	topo.Seed = l.Seed + autoscaleReplaySeed
	sched := autoscaleSchedule(wb, l.Scale)
	slotOf := make(map[string]server.TierID, len(topo.Pools))
	for _, pc := range topo.Pools {
		slotOf[pc.Name] = pc.Slot
	}

	var log strings.Builder
	fmt.Fprintf(&log, "topology pools=%d entry=%s app_max=%d peak_ebs=%d\n",
		len(topo.Pools), topo.Entry, topo.Pools[0].MaxReplicas, frac(wb.FlashKnee, 1.8))

	// arm runs the whole schedule once on a fresh, identically seeded
	// testbed and pipeline; scaling additionally closes the replica loop.
	arm := func(name string, scaling bool) (served int, ups, downs uint64, err error) {
		tb, err := server.NewDAGTestbed(topo, sched)
		if err != nil {
			return 0, 0, 0, err
		}
		_, coll := Collectors(topo.SlotMachines(l.Server), topo.Seed)

		var decisions []serve.Decision
		scfg := serve.Config{
			Window:     l.Scale.Window,
			OnDecision: func(d serve.Decision) { decisions = append(decisions, d) },
			PoolLabels: [server.NumTiers]string{topo.Pools[0].Name, topo.Pools[1].Name},
		}
		var p scaleServePipeline
		sync := func() {}
		if shards > 0 {
			sp, err := serve.NewShardedPipeline(mon, scfg, serve.ShardConfig{Shards: shards})
			if err != nil {
				return 0, 0, 0, err
			}
			defer sp.Close()
			p, sync = sp, sp.Sync
		} else {
			up, err := serve.NewPipeline(mon, scfg)
			if err != nil {
				return 0, 0, 0, err
			}
			p = up
		}

		var as *registry.Autoscaler
		if scaling {
			acfg := registry.DefaultAutoscalerConfig()
			acfg.Scaler = testbedScaler{tb}
			// The admission valve sheds load the moment a verdict lands, so
			// consecutive overload windows rarely happen — one verdict must
			// arm the scaler. The ratio gates are tuned to window-averaged
			// CPU ratios: this overload regime is queue-bound, so the
			// bottleneck's CPU sits well below 1 even as RT explodes.
			acfg.UpWindows = 1
			acfg.DownWindows = 4
			acfg.CooldownWindows = 2
			acfg.UpRatio = 0.3
			acfg.DownRatio = 0.15
			acfg.OnScale = func(e registry.ScaleEvent) {
				p.NoteScale(e.Site, slotOf[e.Pool], e.Replicas, e.Up)
				fmt.Fprintf(&log, "  %s\n", e)
			}
			as, err = registry.NewAutoscaler(acfg)
			if err != nil {
				return 0, 0, 0, err
			}
		}

		// Both arms shed through the valve; the scaling arm also grows
		// the bottleneck pool, relieving the valve instead of starving
		// behind it.
		tb.SetAdmission(p.AdmissionValve(site, valveBound))
		if err := tb.Start(); err != nil {
			return 0, 0, 0, err
		}

		fmt.Fprintf(&log, "arm %s\n", name)
		total := sched.Duration()
		fed := 0
		var rejected int
		// Pool ratios averaged over the decision window: the 1-second
		// loads are too noisy to gate scaling decisions on.
		rsum := make([]float64, len(topo.Pools))
		rsecs := 0
		for elapsed := 0.0; elapsed < total; elapsed++ {
			snap := tb.RunIntervalLegacy(1)
			served += snap.Completions
			rejected += snap.Rejections
			for i, pl := range tb.PoolLoads() {
				rsum[i] += pl.Ratio()
			}
			rsecs++
			for tier := server.TierID(0); tier < server.NumTiers; tier++ {
				vec := coll[tier].Collect(snap, 1)
				// The sharded pipeline queues samples; hand it an owned copy.
				p.Ingest(serve.Sample{Site: site, Tier: tier, Time: snap.Time,
					Values: append([]float64(nil), vec...)})
			}
			sync()
			// Decisions land between simulated seconds, so every replica
			// change takes effect at the same engine time in every mode.
			for ; fed < len(decisions); fed++ {
				d := decisions[fed]
				loads := tb.PoolLoads()
				for i := range loads {
					loads[i].Offered = rsum[i] / float64(rsecs) * loads[i].Capacity
					rsum[i] = 0
				}
				rsecs = 0
				fmt.Fprintf(&log, "window seq=%d predicted=%t app=%.3f/%d db=%.3f/%d\n",
					d.Seq, d.Prediction.Overload,
					loads[0].Ratio(), loads[0].Replicas, loads[1].Ratio(), loads[1].Replicas)
				if as != nil {
					as.Observe(d, loads)
				}
			}
		}
		p.Flush()
		for ; fed < len(decisions); fed++ {
			d := decisions[fed]
			fmt.Fprintf(&log, "window seq=%d predicted=%t flushed\n", d.Seq, d.Prediction.Overload)
		}

		stats, _ := p.SiteStats(site)
		if as != nil {
			ups, downs = as.Actions()
		}
		fmt.Fprintf(&log, "arm %s served=%d rejected=%d decided=%d ups=%d downs=%d app_replicas=%d\n",
			name, served, rejected, stats.WindowsDecided, stats.ScaleUps, stats.ScaleDowns,
			tb.Replicas(topo.Pools[0].Name))
		return served, ups, downs, nil
	}

	admServed, _, _, err := arm("admission", false)
	if err != nil {
		return nil, err
	}
	autoServed, ups, downs, err := arm("autoscale", true)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&log, "served admission=%d autoscale=%d\n", admServed, autoServed)

	return &AutoscaleReplay{
		Log:             log.String(),
		AdmissionServed: admServed,
		AutoscaleServed: autoServed,
		Ups:             ups,
		Downs:           downs,
	}, nil
}
