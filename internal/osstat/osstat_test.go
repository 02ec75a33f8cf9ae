package osstat

import (
	"math"
	"testing"

	"hpcap/internal/chunk"
	"hpcap/internal/server"
	"hpcap/internal/tpcw"
)

func snapshotAt(t *testing.T, mix tpcw.Mix, ebs int, warm float64) server.Snapshot {
	t.Helper()
	tb, err := server.NewTestbed(server.DefaultConfig(), tpcw.Steady(mix, ebs, warm+10))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	tb.RunInterval(warm)
	return tb.RunInterval(1)
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

func TestExactlySixtyFourMetrics(t *testing.T) {
	// The paper collects 64 OS-level metrics with Sysstat.
	if NumMetrics != 64 {
		t.Fatalf("NumMetrics = %d, want 64", NumMetrics)
	}
	if len(MetricNames) != 64 {
		t.Fatalf("len(MetricNames) = %d, want 64", len(MetricNames))
	}
	seen := map[string]bool{}
	for _, n := range MetricNames {
		if seen[n] {
			t.Errorf("duplicate metric %q", n)
		}
		seen[n] = true
	}
}

func TestVectorAlignsWithNames(t *testing.T) {
	s := snapshotAt(t, tpcw.Shopping(), 50, 60)
	c := NewCollector(server.TierApp, 512, 0, 1)
	v := c.Collect(s, 1)
	if len(v) != 64 {
		t.Fatalf("vector length = %d, want 64", len(v))
	}
}

func TestCPUPercentagesSum(t *testing.T) {
	s := snapshotAt(t, tpcw.Shopping(), 100, 90)
	c := NewCollector(server.TierApp, 512, 0, 1)
	v := c.Collect(s, 1)
	sum := v[index(t, "os_cpu_user")] + v[index(t, "os_cpu_system")] +
		v[index(t, "os_cpu_iowait")] + v[index(t, "os_cpu_idle")]
	if sum < 90 || sum > 110 {
		t.Errorf("CPU percentages sum to %v, want ≈100", sum)
	}
}

func TestLoadAverageSmoothing(t *testing.T) {
	// ldavg_1 must lag the instantaneous run queue: after a sudden load
	// rise, runq > ldavg_1 > ldavg_15.
	tb, err := server.NewTestbed(server.DefaultConfig(), tpcw.Schedule{Phases: []tpcw.Phase{
		{Mix: tpcw.Ordering(), EBs: 10, Duration: 300},
		{Mix: tpcw.Ordering(), EBs: 700, Duration: 300},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	c := NewCollector(server.TierApp, 512, 0, 1)
	var v []float64
	for i := 0; i < 360; i++ {
		v = c.Collect(tb.RunInterval(1), 1)
	}
	runq := v[index(t, "os_runq_sz")]
	ld1 := v[index(t, "os_ldavg_1")]
	ld15 := v[index(t, "os_ldavg_15")]
	if runq <= ld1 {
		t.Errorf("60 s after a surge, runq (%v) should exceed ldavg_1 (%v)", runq, ld1)
	}
	if ld1 <= ld15 {
		t.Errorf("ldavg_1 (%v) should exceed ldavg_15 (%v) shortly after a surge", ld1, ld15)
	}
}

func TestAppTierLooksIdleUnderDBOverload(t *testing.T) {
	// The paper's key asymmetry: under browsing-mix (DB bottleneck)
	// overload, the app machine's CPU and run-queue metrics look idle
	// because its threads are blocked, not runnable.
	s := snapshotAt(t, tpcw.Browsing(), 450, 500)
	c := NewCollector(server.TierApp, 512, 0, 1)
	v := c.Collect(s, 1)
	if idle := v[index(t, "os_cpu_idle")]; idle < 50 {
		t.Errorf("app cpu_idle = %v%%, want mostly idle under DB overload", idle)
	}
	if runq := v[index(t, "os_runq_sz")]; runq > 20 {
		t.Errorf("app runq = %v, want short under DB overload", runq)
	}

	db := NewCollector(server.TierDB, 1024, 0, 1)
	dv := db.Collect(s, 1)
	if idle := dv[index(t, "os_cpu_idle")]; idle > 10 {
		t.Errorf("db cpu_idle = %v%%, want pegged", idle)
	}
}

func TestMemoryMetricsNearlyConstant(t *testing.T) {
	// Preallocated JVM heap / InnoDB buffer pool: memory metrics must not
	// leak the thrashing signal.
	light := snapshotAt(t, tpcw.Browsing(), 50, 60)
	heavy := snapshotAt(t, tpcw.Browsing(), 450, 500)
	c := NewCollector(server.TierDB, 1024, 0, 1)
	lv := c.Collect(light, 1)
	c2 := NewCollector(server.TierDB, 1024, 0, 1)
	hv := c2.Collect(heavy, 1)
	i := index(t, "os_kbmemused")
	rel := (hv[i] - lv[i]) / lv[i]
	if rel > 0.02 || rel < -0.02 {
		t.Errorf("kbmemused moved %.1f%% between light and overload, want ≈constant", rel*100)
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	s := snapshotAt(t, tpcw.Shopping(), 60, 60)
	a := NewCollector(server.TierApp, 512, 0.05, 9)
	b := NewCollector(server.TierApp, 512, 0.05, 9)
	va, vb := a.Collect(s, 1), b.Collect(s, 1)
	for i := range va {
		if va[i] != vb[i] {
			t.Fatalf("same seed diverged at %s", MetricNames[i])
		}
	}
}

func TestNoNegativeMetrics(t *testing.T) {
	s := snapshotAt(t, tpcw.Ordering(), 600, 400)
	c := NewCollector(server.TierApp, 512, 0.3, 4)
	for trial := 0; trial < 100; trial++ {
		for i, v := range c.Collect(s, 1) {
			if v < 0 {
				t.Fatalf("metric %s negative: %v", MetricNames[i], v)
			}
		}
	}
}

// TestCollectOwnsItsVector: Collect carves its vectors from a shared
// chunk, so every vector retained over several chunk turnovers must stay
// bit-identical through 100 more collects, and each is capacity-limited,
// so appending to one cannot write into the next.
func TestCollectOwnsItsVector(t *testing.T) {
	s := snapshotAt(t, tpcw.Shopping(), 60, 60)
	c := NewCollector(server.TierApp, 512, 0.05, 5)
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
