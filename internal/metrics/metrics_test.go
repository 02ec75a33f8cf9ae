package metrics

import (
	"testing"

	"hpcap/internal/cpu"
	"hpcap/internal/osstat"
	"hpcap/internal/server"
	"hpcap/internal/tpcw"
)

func TestLevelString(t *testing.T) {
	if LevelOS.String() != "OS" || LevelHPC.String() != "HPC" {
		t.Error("level names wrong")
	}
	if Level(0).String() != "Level(0)" {
		t.Error("unknown level name wrong")
	}
}

func TestCollectorInterfaceCompliance(t *testing.T) {
	cfg := server.DefaultConfig()
	var _ Collector = cpu.NewCollector(server.TierApp, cfg.App.Machine, 0, 1)
	var _ Collector = osstat.NewCollector(server.TierDB, 1024, 0, 1)
}

// TestCollectToMatchesCollect pins the scratch path to the allocating path:
// same seed, same telemetry, bit-identical vectors.
func TestCollectToMatchesCollect(t *testing.T) {
	cfg := server.DefaultConfig()
	tb, err := server.NewTestbed(cfg, tpcw.Steady(tpcw.Shopping(), 60, 300))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	s := tb.RunInterval(30)
	a := cpu.NewCollector(server.TierApp, cfg.App.Machine, 0.02, 7)
	b := cpu.NewCollector(server.TierApp, cfg.App.Machine, 0.02, 7)
	buf := make([]float64, 1)
	va := a.Collect(s, 1)
	vb := b.CollectTo(buf, s, 1)
	if len(va) != len(vb) {
		t.Fatalf("lengths differ: %d vs %d", len(va), len(vb))
	}
	for i := range va {
		if va[i] != vb[i] {
			t.Errorf("metric %d: Collect=%v CollectTo=%v", i, va[i], vb[i])
		}
	}
	oa := osstat.NewCollector(server.TierDB, 1024, 0.02, 7)
	ob := osstat.NewCollector(server.TierDB, 1024, 0.02, 7)
	wide := make([]float64, 128)
	wa := oa.Collect(s, 1)
	wb := ob.CollectTo(wide, s, 1)
	if len(wb) != len(wa) {
		t.Fatalf("CollectTo did not truncate to NumMetrics: %d", len(wb))
	}
	for i := range wa {
		if wa[i] != wb[i] {
			t.Errorf("os metric %d: Collect=%v CollectTo=%v", i, wa[i], wb[i])
		}
	}
}

func TestNewAggregatorRejectsBadWindow(t *testing.T) {
	cfg := server.DefaultConfig()
	c := cpu.NewCollector(server.TierApp, cfg.App.Machine, 0, 1)
	if _, err := NewAggregator(c, 0); err == nil {
		t.Error("zero window not rejected")
	}
	if _, err := NewAggregator(c, -5); err == nil {
		t.Error("negative window not rejected")
	}
}

func TestAggregatorWindowing(t *testing.T) {
	cfg := server.DefaultConfig()
	tb, err := server.NewTestbed(cfg, tpcw.Steady(tpcw.Shopping(), 60, 400))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	tb.RunInterval(60)

	c := cpu.NewCollector(server.TierApp, cfg.App.Machine, 0, 1)
	agg, err := NewAggregator(c, DefaultWindow)
	if err != nil {
		t.Fatal(err)
	}

	var samples []Sample
	for i := 0; i < 90; i++ {
		if s, ok := agg.Push(tb.RunInterval(1), 1); ok {
			samples = append(samples, s)
		}
	}
	if len(samples) != 3 {
		t.Fatalf("90 pushes with window 30 produced %d samples, want 3", len(samples))
	}
	for _, s := range samples {
		if len(s.Values) != cpu.NumMetrics {
			t.Errorf("sample vector length %d, want %d", len(s.Values), cpu.NumMetrics)
		}
	}
	// Windows are means, not sums: consecutive window values must be
	// commensurate.
	if samples[1].Values[0] > samples[0].Values[0]*3+1 {
		t.Errorf("window values look cumulative: %v then %v",
			samples[0].Values[0], samples[1].Values[0])
	}
}

func TestAggregatorResetsBetweenWindows(t *testing.T) {
	cfg := server.DefaultConfig()
	tb, err := server.NewTestbed(cfg, tpcw.Steady(tpcw.Shopping(), 40, 200))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	c := osstat.NewCollector(server.TierApp, 512, 0, 1)
	agg, err := NewAggregator(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	var first, second Sample
	n := 0
	for i := 0; i < 10; i++ {
		if s, ok := agg.Push(tb.RunInterval(1), 1); ok {
			if n == 0 {
				first = s
			} else {
				second = s
			}
			n++
		}
	}
	if n != 2 {
		t.Fatalf("got %d windows, want 2", n)
	}
	if second.Time-first.Time != 5 {
		t.Errorf("window spacing = %v, want 5", second.Time-first.Time)
	}
}

func TestCollectionCostsMatchPaperShape(t *testing.T) {
	// HPC collection must be roughly an order of magnitude cheaper than
	// OS collection (<0.5% vs ≈4% of one CPU per 1-second sample).
	if HPCSampleCost >= OSSampleCost/5 {
		t.Errorf("HPC cost %v not ≪ OS cost %v", HPCSampleCost, OSSampleCost)
	}
	if HPCSampleCost > 0.005 {
		t.Errorf("HPC per-sample cost %v exceeds 0.5%% of a second", HPCSampleCost)
	}
	if OSSampleCost < 0.01 || OSSampleCost > 0.06 {
		t.Errorf("OS per-sample cost %v out of the sysstat band", OSSampleCost)
	}
}
