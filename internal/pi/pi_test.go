package pi

import (
	"math"
	"testing"

	"hpcap/internal/metrics"
)

var testNames = []string{"hpc_ipc", "hpc_l2_miss_ratio", "hpc_stall_frac", "hpc_instr_rate", "hpc_stall_rate", "hpc_l2_mpki"}

func sample(ipc, miss, stall, thr float64) metrics.Sample {
	return metrics.Sample{
		Values:      []float64{ipc, miss, stall, ipc * 1e9, stall * 1e9, miss * 10},
		Throughput:  thr,
		ArrivalRate: thr,
	}
}

func TestSeries(t *testing.T) {
	samples := []metrics.Sample{
		sample(0.8, 0.02, 0.1, 50),
		sample(0.4, 0.08, 0.5, 25),
	}
	def := Definition{Name: "x", Yield: "hpc_ipc", Cost: "hpc_l2_miss_ratio"}
	s, err := Series(def, testNames, samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s[0]-40) > 1e-9 || math.Abs(s[1]-5) > 1e-9 {
		t.Errorf("Series = %v, want [40 5]", s)
	}
}

func TestSeriesZeroCost(t *testing.T) {
	samples := []metrics.Sample{sample(0.8, 0, 0, 10)}
	def := Definition{Name: "x", Yield: "hpc_ipc", Cost: "hpc_l2_miss_ratio"}
	s, err := Series(def, testNames, samples)
	if err != nil {
		t.Fatal(err)
	}
	if s[0] != 0 {
		t.Errorf("zero-cost PI = %v, want 0", s[0])
	}
}

func TestSeriesUnknownMetric(t *testing.T) {
	if _, err := Series(Definition{Yield: "nope", Cost: "hpc_ipc"}, testNames, nil); err == nil {
		t.Error("unknown yield not rejected")
	}
	if _, err := Series(Definition{Yield: "hpc_ipc", Cost: "nope"}, testNames, nil); err == nil {
		t.Error("unknown cost not rejected")
	}
}

func TestSelectPicksMostCorrelated(t *testing.T) {
	// Build a trace where IPC/L2miss tracks throughput tightly while
	// IPC/stall is noise.
	var samples []metrics.Sample
	for i := 0; i < 40; i++ {
		thr := 10 + float64(i)
		ipc := 0.9
		miss := ipc / (thr * 2) // PI(ipc/miss) = 2·thr exactly
		stall := 0.5            // PI(ipc/stall) constant
		if i%2 == 0 {
			stall = 0.1
		}
		samples = append(samples, sample(ipc, miss, stall, thr))
	}
	cands := []Definition{
		{Name: "good", Yield: "hpc_ipc", Cost: "hpc_l2_miss_ratio"},
		{Name: "noisy", Yield: "hpc_ipc", Cost: "hpc_stall_frac"},
	}
	sel, err := Select(cands, testNames, samples)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Definition.Name != "good" {
		t.Errorf("selected %q, want \"good\"", sel.Definition.Name)
	}
	if sel.Corr < 0.99 {
		t.Errorf("Corr = %v, want ≈1", sel.Corr)
	}
}

func TestSelectErrors(t *testing.T) {
	if _, err := Select(nil, testNames, make([]metrics.Sample, 5)); err == nil {
		t.Error("no candidates not rejected")
	}
	if _, err := Select(DefaultCandidates(), testNames, make([]metrics.Sample, 2)); err == nil {
		t.Error("too few samples not rejected")
	}
}

func TestDefaultCandidatesResolve(t *testing.T) {
	// Every default candidate must resolve against the HPC metric names.
	var samples []metrics.Sample
	for i := 0; i < 5; i++ {
		samples = append(samples, sample(0.5, 0.05, 0.3, float64(10+i)))
	}
	for _, cand := range DefaultCandidates() {
		if _, err := Series(cand, testNames, samples); err != nil {
			t.Errorf("candidate %s: %v", cand.Name, err)
		}
	}
}

func TestLabelerRTThreshold(t *testing.T) {
	var l Labeler // 1.0 s SLA
	healthy := metrics.Sample{MeanRT: 0.08, Throughput: 40, ArrivalRate: 41}
	overloaded := metrics.Sample{MeanRT: 4.2, Throughput: 25, ArrivalRate: 26}
	if l.Label(healthy) != 0 {
		t.Error("healthy window labeled overloaded")
	}
	if l.Label(overloaded) != 1 {
		t.Error("slow window labeled underloaded")
	}
}

func TestLabelerDeficit(t *testing.T) {
	var l Labeler
	// Fast responses for the few that complete, but arrivals far exceed
	// completions: backlog building.
	starved := metrics.Sample{MeanRT: 0.1, Throughput: 5, ArrivalRate: 30}
	if l.Label(starved) != 1 {
		t.Error("starved window labeled underloaded")
	}
	// Idle site: trivial arrivals, no deficit.
	idle := metrics.Sample{MeanRT: 0, Throughput: 0, ArrivalRate: 0.5}
	if l.Label(idle) != 0 {
		t.Error("idle window labeled overloaded")
	}
}
