package cpu

import (
	"math"
	"testing"

	"hpcap/internal/chunk"
	"hpcap/internal/server"
	"hpcap/internal/tpcw"
)

func snapshotAt(t *testing.T, mix tpcw.Mix, ebs int, warm, settle float64) (server.Snapshot, server.Config) {
	t.Helper()
	cfg := server.DefaultConfig()
	tb, err := server.NewTestbed(cfg, tpcw.Steady(mix, ebs, warm+settle+10))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	tb.RunInterval(warm + settle)
	return tb.RunInterval(1), cfg
}

func TestNamesAlignWithVector(t *testing.T) {
	s, cfg := snapshotAt(t, tpcw.Shopping(), 50, 60, 0)
	c := NewCollector(server.TierApp, cfg.App.Machine, 0, 1)
	v := c.Collect(s, 1)
	if len(v) != len(c.Names()) {
		t.Fatalf("vector length %d != names length %d", len(v), len(c.Names()))
	}
	if len(v) != NumMetrics {
		t.Fatalf("NumMetrics = %d, vector = %d", NumMetrics, len(v))
	}
}

func TestMetricNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range MetricNames {
		if seen[n] {
			t.Errorf("duplicate metric name %q", n)
		}
		seen[n] = true
	}
}

func index(t *testing.T, name string) int {
	t.Helper()
	for i, n := range MetricNames {
		if n == name {
			return i
		}
	}
	t.Fatalf("metric %q not found", name)
	return -1
}

func TestIPCConsistency(t *testing.T) {
	s, cfg := snapshotAt(t, tpcw.Shopping(), 80, 90, 0)
	c := NewCollector(server.TierApp, cfg.App.Machine, 0, 1)
	v := c.Collect(s, 1)
	ipc := v[index(t, "hpc_ipc")]
	cpi := v[index(t, "hpc_cpi")]
	if ipc <= 0 || ipc > cfg.App.Machine.BaseIPC+1e-9 {
		t.Errorf("IPC = %v, want in (0, %v]", ipc, cfg.App.Machine.BaseIPC)
	}
	if cpi <= 0 {
		t.Fatalf("CPI = %v", cpi)
	}
	if got := ipc * cpi; got < 0.99 || got > 1.01 {
		t.Errorf("IPC×CPI = %v, want ≈1", got)
	}
}

func TestStallFractionBounds(t *testing.T) {
	s, cfg := snapshotAt(t, tpcw.Shopping(), 80, 90, 0)
	c := NewCollector(server.TierDB, cfg.DB.Machine, 0, 1)
	v := c.Collect(s, 1)
	sf := v[index(t, "hpc_stall_frac")]
	if sf < 0 || sf >= 1 {
		t.Errorf("stall fraction = %v, want [0, 1)", sf)
	}
	mr := v[index(t, "hpc_l2_miss_ratio")]
	if mr < 0 || mr >= 1 {
		t.Errorf("miss ratio = %v, want [0, 1)", mr)
	}
}

func TestIdleIntervalProducesZeros(t *testing.T) {
	cfg := server.DefaultConfig()
	cfg.App.BackgroundRate = 0 // a truly idle machine: no housekeeping either
	tb, err := server.NewTestbed(cfg, tpcw.Steady(tpcw.Shopping(), 0, 100))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	s := tb.RunInterval(5)
	c := NewCollector(server.TierApp, cfg.App.Machine, 0, 1)
	for i, v := range c.Collect(s, 5) {
		if v != 0 {
			t.Errorf("idle metric %s = %v, want 0", MetricNames[i], v)
		}
	}
}

func TestOverloadSignatureOrdering(t *testing.T) {
	// Under ordering-mix overload the app tier's IPC must drop and its L2
	// miss ratio, stall fraction and ITLB rate must rise versus healthy
	// operation — the counter signature the paper's synopses learn.
	cfg := server.DefaultConfig()
	healthy, _ := snapshotAt(t, tpcw.Ordering(), 250, 200, 0)
	overloaded, _ := snapshotAt(t, tpcw.Ordering(), 600, 400, 0)

	c := NewCollector(server.TierApp, cfg.App.Machine, 0, 1)
	hv := c.Collect(healthy, 1)
	ov := c.Collect(overloaded, 1)

	if ov[index(t, "hpc_ipc")] >= hv[index(t, "hpc_ipc")] {
		t.Errorf("IPC did not drop: healthy %v, overloaded %v",
			hv[index(t, "hpc_ipc")], ov[index(t, "hpc_ipc")])
	}
	if ov[index(t, "hpc_l2_miss_ratio")] <= hv[index(t, "hpc_l2_miss_ratio")] {
		t.Errorf("miss ratio did not rise: healthy %v, overloaded %v",
			hv[index(t, "hpc_l2_miss_ratio")], ov[index(t, "hpc_l2_miss_ratio")])
	}
	if ov[index(t, "hpc_stall_frac")] <= hv[index(t, "hpc_stall_frac")] {
		t.Errorf("stall fraction did not rise")
	}
	if ov[index(t, "hpc_itlb_mpki")] <= hv[index(t, "hpc_itlb_mpki")] {
		t.Errorf("ITLB MPKI did not rise")
	}
}

func TestNoiseIsDeterministicPerSeed(t *testing.T) {
	s, cfg := snapshotAt(t, tpcw.Shopping(), 50, 60, 0)
	a := NewCollector(server.TierApp, cfg.App.Machine, 0.05, 7)
	b := NewCollector(server.TierApp, cfg.App.Machine, 0.05, 7)
	va, vb := a.Collect(s, 1), b.Collect(s, 1)
	for i := range va {
		if va[i] != vb[i] {
			t.Fatalf("same seed diverged at %s", MetricNames[i])
		}
	}
	cNoisier := NewCollector(server.TierApp, cfg.App.Machine, 0.05, 8)
	vc := cNoisier.Collect(s, 1)
	same := true
	for i := range va {
		if va[i] != vc[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical noise")
	}
}

func TestNoiseNeverNegative(t *testing.T) {
	s, cfg := snapshotAt(t, tpcw.Shopping(), 50, 60, 0)
	c := NewCollector(server.TierApp, cfg.App.Machine, 0.5, 3)
	for trial := 0; trial < 200; trial++ {
		for i, v := range c.Collect(s, 1) {
			if v < 0 {
				t.Fatalf("metric %s went negative: %v", MetricNames[i], v)
			}
		}
	}
}

// TestCollectOwnsItsVector: Collect carves its vectors from a shared
// chunk, so every vector retained over several chunk turnovers must stay
// bit-identical through 100 more collects, and each is capacity-limited,
// so appending to one cannot write into the next.
func TestCollectOwnsItsVector(t *testing.T) {
	s, cfg := snapshotAt(t, tpcw.Shopping(), 50, 60, 0)
	c := NewCollector(server.TierApp, cfg.App.Machine, 0.05, 5)
	var kept [][]float64
	var bits [][]uint64
	for range 4 * chunk.Carves {
		v := c.Collect(s, 1)
		if cap(v) != len(v) {
			t.Fatalf("vector %d has capacity %d beyond its length %d", len(kept), cap(v), len(v))
		}
		b := make([]uint64, len(v))
		for i, x := range v {
			b[i] = math.Float64bits(x)
		}
		kept, bits = append(kept, v), append(bits, b)
	}
	for range 100 {
		_ = append(c.Collect(s, 1), 1)
	}
	for k, v := range kept {
		for i, x := range v {
			if math.Float64bits(x) != bits[k][i] {
				t.Fatalf("vector %d changed at %s after later collects", k, MetricNames[i])
			}
		}
	}
}
