package experiment

import (
	"fmt"
	"math"
	"strings"

	"hpcap/internal/registry"
	"hpcap/internal/serve"
	"hpcap/internal/server"
	"hpcap/internal/tpcw"
	"hpcap/internal/wire"
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

// runAutoscaleReplay declares the autoscale scenario: its traffic is the
// live DAG testbed stepped one simulated second per scrape under the
// flash-crowd schedule, with no stream transform and no lifecycle. Each
// arm runs on a fresh, identically seeded testbed and pipeline; both shed
// through the admission valve, and the scaling arm also closes the
// replica loop.
func (l *Lab) runAutoscaleReplay(workers int, f front) (*AutoscaleReplay, error) {
	const valveBound = 4
	r, err := l.newReplay(workers, f)
	if err != nil {
		return nil, err
	}
	topo := autoscaleTopology(l.Server)
	topo.Seed = l.Seed + autoscaleReplaySeed
	sched := autoscaleSchedule(r.wb, l.Scale)
	slotOf := make(map[string]server.TierID, len(topo.Pools))
	for _, pc := range topo.Pools {
		slotOf[pc.Name] = pc.Slot
	}

	var log strings.Builder
	fmt.Fprintf(&log, "topology pools=%d entry=%s app_max=%d peak_ebs=%d\n",
		len(topo.Pools), topo.Entry, topo.Pools[0].MaxReplicas, frac(r.wb.FlashKnee, 1.8))

	// arm runs one arm on a fresh testbed and pipeline and returns the
	// requests it served and, when scaling, the autoscaler that acted.
	arm := func(name string, scaling bool) (served int, as *registry.Autoscaler, err error) {
		tb, err := server.NewDAGTestbed(topo, sched)
		if err != nil {
			return 0, nil, err
		}
		_, coll := Collectors(topo.SlotMachines(l.Server), topo.Seed)
		p, err := r.open(serve.Config{
			PoolLabels: [server.NumTiers]string{topo.Pools[0].Name, topo.Pools[1].Name},
		})
		if err != nil {
			return 0, nil, err
		}
		defer p.close()

		if scaling {
			as, err = registry.NewAutoscaler(registry.AutoscalerConfig{
				Scaler: testbedScaler{tb},
				OnScale: func(e registry.ScaleEvent) {
					p.NoteScale(e.Site, slotOf[e.Pool], e.Replicas, e.Up)
					fmt.Fprintf(&log, "  %s\n", e)
				},
			})
			if err != nil {
				return 0, nil, err
			}
		}
		tb.SetAdmission(p.AdmissionValve(replaySite, valveBound))
		if err := tb.Start(); err != nil {
			return 0, nil, err
		}

		fmt.Fprintf(&log, "arm %s\n", name)
		var rejected int
		// Pool ratios averaged over the decision window: the 1-second
		// loads are too noisy to gate scaling decisions on.
		rsum := make([]float64, len(topo.Pools))
		rsecs := 0
		scrape := func(int) wire.Sample {
			snap := tb.RunIntervalLegacy(1)
			served += snap.Completions
			rejected += snap.Rejections
			for i, pl := range tb.PoolLoads() {
				rsum[i] += pl.Ratio()
			}
			rsecs++
			s := wire.Sample{Time: snap.Time}
			for tier := range s.Vecs {
				// The sharded pipeline queues samples; hand it an owned copy.
				s.Vecs[tier] = coll[tier].CollectTo(nil, snap, 1)
			}
			return s
		}
		// Decisions are delivered between simulated seconds with no lag,
		// so every replica change takes effect at the same engine time at
		// every front.
		err = p.feed(int(math.Ceil(sched.Duration())), scrape, nil, 0, func(d serve.Decision, final bool) {
			if final {
				fmt.Fprintf(&log, "window seq=%d predicted=%t flushed\n", d.Seq, d.Prediction.Overload)
				return
			}
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
		})
		if err != nil {
			return 0, nil, err
		}

		stats, _ := p.SiteStats(replaySite)
		fmt.Fprintf(&log, "arm %s served=%d rejected=%d decided=%d ups=%d downs=%d app_replicas=%d\n",
			name, served, rejected, stats.WindowsDecided, stats.ScaleUps, stats.ScaleDowns,
			tb.Replicas(topo.Pools[0].Name))
		return served, as, nil
	}

	admServed, _, err := arm("admission", false)
	if err != nil {
		return nil, err
	}
	autoServed, as, err := arm("autoscale", true)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&log, "served admission=%d autoscale=%d\n", admServed, autoServed)
	res := &AutoscaleReplay{
		Log:             log.String(),
		AdmissionServed: admServed,
		AutoscaleServed: autoServed,
	}
	res.Ups, res.Downs = as.Actions()
	return res, nil
}
