package simsite_test

import (
	"fmt"
	"runtime"
	"testing"

	"hpcap/internal/chaos"
	"hpcap/internal/experiment"
	"hpcap/internal/fuse"
	"hpcap/internal/metrics"
	"hpcap/internal/predictor"
	"hpcap/internal/serve"
	"hpcap/internal/server"
	"hpcap/internal/simsite"
	"hpcap/internal/tpcw"
)

// TestLivePathAllocs prices the per-second path of warm simulated sites
// as the serving daemon and the live benchmark run it: simulate a second,
// collect each tier through a retrying collector over a chaos-flaky
// source, run the vector through the fault injector (NaN, stuck, drop,
// dup, skew and stall faults all active while measuring, the stall
// failing every read of the app tier for 30 s) and ingest what it returns
// into a fusing Pipeline. Once every site has run a whole burst cycle, its
// browsers retired and respawned, the path must cost at most one
// allocation per 16 tier-samples, counted by ReadMemStats, at the HPC
// level and at the combined level, where each sample is both collectors'
// vectors in one.
func TestLivePathAllocs(t *testing.T) {
	const (
		sites    = 4
		warm     = 420 // past every site's first cruise, burst and recovery
		measured = 300
	)
	lab := experiment.NewLab(experiment.QuickScale())
	wb, err := lab.Workload(tpcw.Browsing())
	if err != nil {
		t.Fatal(err)
	}
	wo, err := lab.Workload(tpcw.Ordering())
	if err != nil {
		t.Fatal(err)
	}
	storm, err := chaos.Parse(fmt.Sprintf("nan at=0 for=%d p=0.3; stuck tier=db at=%d for=60; "+
		"drop tier=app at=%d for=60 p=0.5; dup at=%d for=60 p=0.3; stall tier=app at=%d for=30; "+
		"skew tier=app at=%d for=30 p=0.25",
		warm+measured, warm+20, warm+100, warm+160, warm+200, warm+240))
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []metrics.Level{metrics.LevelHPC, metrics.LevelCombined} {
		t.Run(level.String(), func(t *testing.T) {
			mon, err := lab.TrainMonitor(level, predictor.Config{})
			if err != nil {
				t.Fatal(err)
			}
			inj := chaos.NewInjector(storm, 7)
			decided := 0
			fc := fuse.DefaultConfig()
			pipe, err := serve.NewPipeline(mon, serve.Config{Fuse: &fc, OnDecision: func(serve.Decision) { decided++ }})
			if err != nil {
				t.Fatal(err)
			}
			var ss []*simsite.Site
			var retries []*metrics.RetryCollector
			for i := 0; i < sites; i++ {
				s, err := simsite.New(fmt.Sprintf("site-%d", i), lab.Server, level, i, wb, wo, 7, warm+measured)
				if err != nil {
					t.Fatal(err)
				}
				s.WrapCollectors(func(c metrics.Collector) metrics.Collector {
					r := metrics.NewRetryCollector(chaos.NewFlakyCollector(c, storm), 2)
					retries = append(retries, r)
					return r
				})
				if err := s.TB.Start(); err != nil {
					t.Fatal(err)
				}
				ss = append(ss, s)
			}
			failures := func() (n uint64) {
				for _, r := range retries {
					n += r.Failures()
				}
				return n
			}
			second := func() {
				for _, s := range ss {
					snap := s.TB.RunInterval(1)
					for tier := server.TierID(0); tier < server.NumTiers; tier++ {
						for _, out := range inj.Apply(serve.Sample{Site: s.Name, Tier: tier, Time: snap.Time, Values: s.Collect(tier, snap)}) {
							pipe.Ingest(out)
						}
					}
				}
			}
			for range warm {
				second()
			}
			before, st0, failed0 := decided, inj.Stats(), failures()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for range measured {
				second()
			}
			runtime.ReadMemStats(&m1)
			st := inj.Stats()
			if decided == before || st.Corrupted == st0.Corrupted || st.Frozen == st0.Frozen || st.Dropped == st0.Dropped ||
				st.Duplicated == st0.Duplicated || st.Stalled == st0.Stalled || failures() == failed0 {
				t.Fatalf("measured stretch decided %d windows, failed %d reads and injected %+v: want decisions, failed reads and every fault kind",
					decided-before, failures()-failed0, st)
			}
			samples := float64(sites * measured * int(server.NumTiers))
			per := float64(m1.Mallocs-m0.Mallocs) / samples
			t.Logf("%d allocations over %.0f tier-samples: %.4f per sample", m1.Mallocs-m0.Mallocs, samples, per)
			if per > 1.0/16 {
				t.Errorf("live path: %.4f allocations per tier-sample, want <= 1/16", per)
			}
		})
	}
}
