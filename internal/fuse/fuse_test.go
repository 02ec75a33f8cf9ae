package fuse_test

import (
	"errors"
	"math"
	"testing"

	"hpcap/internal/core"
	"hpcap/internal/cpu"
	"hpcap/internal/fuse"
	"hpcap/internal/metrics"
	"hpcap/internal/osstat"
)

// Synthetic machine constants for the generated test streams.
const (
	baseIPC = 1.2
	clockHz = 3e9
)

// hpcVec builds a hardware-counter vector with the cpu collector's exact
// derivation formulas, varying every raw count with t so no counter is
// structurally constant.
func hpcVec(t int) []float64 {
	instr := 1.0e9 + 1.3e7*float64(t%7)
	cycles := 1.5e9 + 1.1e7*float64(t%5)
	l2ref := 2.0e7 + 1.7e5*float64(t%3)
	l2miss := 0.3*l2ref - 1.0e4*float64(t%2)
	itlb := 1.0e5 + 13*float64(t%4)
	branches := 2.0e8 + 1.9e5*float64(t%6)
	bmiss := 0.021 * branches
	l1ref := instr * 0.31
	stall := cycles - instr/baseIPC
	if stall < 0 {
		stall = 0
	}
	bus := l2miss * 1.35
	return []float64{
		instr, cycles, instr / cycles, cycles / instr, cycles / clockHz,
		l1ref, l2ref, l2miss, l2miss / l2ref, l2miss / instr * 1000,
		stall, stall / cycles, itlb, itlb / instr * 1000, branches,
		bmiss / branches, bus, bus * 64 / 6.4e9, l2ref / cycles,
	}
}

// osVec builds an OS vector whose CPU split sums to exactly 100, with
// the remaining metrics varying mildly.
func osVec(t int) []float64 {
	v := make([]float64, len(osstat.MetricNames))
	user := 40 + float64(t%9)
	sys := 12 + 0.5*float64(t%5)
	iowait := 0.4 + 0.01*float64(t%3)
	v[0], v[1], v[2], v[3] = user, sys, iowait, 100-user-sys-iowait
	for i := 4; i < len(v); i++ {
		v[i] = float64(i) + 0.1*float64((t+i)%11)
	}
	v[18] = 400 * 1024      // kbmemused
	v[19] = v[18] / 5242.88 // pct_memused on a 512 MB machine
	v[22] = v[18] * 1.3     // kbcommit
	return v
}

func newFuser(t testing.TB, cfg fuse.Config, dim int) *fuse.Fuser {
	t.Helper()
	f, err := fuse.New(cfg, dim)
	if err != nil {
		t.Fatalf("fuse.New: %v", err)
	}
	return f
}

// warmUp feeds n clean samples.
func warmUp(f *fuse.Fuser, n int, vec func(int) []float64) {
	for t := 0; t < n; t++ {
		f.Fuse(vec(t))
	}
}

func checkRejected(t *testing.T, name string, errs []error) {
	t.Helper()
	if len(errs) == 0 {
		t.Fatalf("%s not rejected", name)
	}
	for _, err := range errs {
		if !errors.Is(err, core.ErrBadConfig) {
			t.Errorf("%s: error %v does not wrap ErrBadConfig", name, err)
		}
	}
}

func TestFuseConfigValidate(t *testing.T) {
	if errs := fuse.DefaultConfig().Validate(); len(errs) > 0 {
		t.Fatalf("DefaultConfig invalid: %v", errs)
	}
	if errs := (fuse.Config{}).Validate(); len(errs) > 0 {
		t.Fatalf("zero Config invalid after defaults: %v", errs)
	}
	// Clamped fields validate: negatives are documented shorthands.
	ok := fuse.Config{Warmup: -1, ConfidenceFloor: -1}
	if errs := ok.Validate(); len(errs) > 0 {
		t.Fatalf("clamped config rejected: %v", errs)
	}
	tests := []struct {
		name string
		cfg  fuse.Config
	}{
		{"negative process noise", fuse.Config{ProcessNoise: -0.1}},
		{"infinite process noise", fuse.Config{ProcessNoise: math.Inf(1)}},
		{"NaN process noise", fuse.Config{ProcessNoise: math.NaN()}},
		{"negative measurement noise", fuse.Config{MeasurementNoise: -0.1}},
		{"negative gate", fuse.Config{GateSigmas: -3}},
		{"NaN gate", fuse.Config{GateSigmas: math.NaN()}},
		{"one-sample stuck run", fuse.Config{StuckRun: 1}},
		{"negative stuck run", fuse.Config{StuckRun: -2}},
		{"confidence floor above one", fuse.Config{ConfidenceFloor: 1.5}},
		{"NaN confidence floor", fuse.Config{ConfidenceFloor: math.NaN()}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			checkRejected(t, tt.name, tt.cfg.Validate())
		})
	}
	if _, err := fuse.New(fuse.Config{}, 0); !errors.Is(err, core.ErrBadConfig) {
		t.Errorf("zero dimension: got %v, want ErrBadConfig", err)
	}
	if _, err := fuse.New(fuse.Config{StuckRun: 1}, 19); !errors.Is(err, core.ErrBadConfig) {
		t.Errorf("bad config: got %v, want ErrBadConfig", err)
	}
}

// TestFuseCleanPassthrough pins the design's core guarantee: on a clean
// varying stream every reading is accepted and emitted bit-identical,
// with full confidence — fusion never perturbs a trusted stream.
func TestFuseCleanPassthrough(t *testing.T) {
	f := newFuser(t, fuse.Config{}, len(cpu.MetricNames))
	for step := 0; step < 200; step++ {
		in := hpcVec(step)
		res := f.Fuse(in)
		if res.Imputed != 0 || res.Gated != 0 {
			t.Fatalf("step %d: clean sample imputed=%d gated=%d", step, res.Imputed, res.Gated)
		}
		if res.Confidence != 1 {
			t.Fatalf("step %d: clean confidence %v, want 1", step, res.Confidence)
		}
		for i, v := range res.Values {
			if v != in[i] {
				t.Fatalf("step %d counter %d: emitted %v, want raw %v", step, i, v, in[i])
			}
		}
	}
}

// TestFuseImputesMissingExactly corrupts single counters with NaN and
// checks the factor graph reconstructs them from accepted peers with
// (near-)zero error, at ConfFactor confidence.
func TestFuseImputesMissingExactly(t *testing.T) {
	dim := len(cpu.MetricNames)
	f := newFuser(t, fuse.Config{}, dim)
	warmUp(f, 20, hpcVec)

	// instr_rate (0) reconstructs from ipc·cycles; l2_miss_rate (7)
	// from miss_ratio·l2_ref; bus (16) from 1.35·l2_miss.
	for _, comp := range []int{0, 7, 16, 2, 8, 17} {
		step := 100 + comp
		clean := hpcVec(step)
		bad := append([]float64(nil), clean...)
		bad[comp] = math.NaN()
		res := f.Fuse(bad)
		if res.Imputed != 1 {
			t.Fatalf("comp %d: imputed %d counters, want 1", comp, res.Imputed)
		}
		got, want := res.Values[comp], clean[comp]
		if rel := math.Abs(got-want) / math.Max(math.Abs(want), 1e-12); rel > 1e-9 {
			t.Errorf("comp %d: imputed %v, want %v (rel err %v)", comp, got, want, rel)
		}
		wantConf := (float64(dim-1)*fuse.ConfAccepted + fuse.ConfFactor) / float64(dim)
		if math.Abs(res.Confidence-wantConf) > 1e-12 {
			t.Errorf("comp %d: confidence %v, want %v", comp, res.Confidence, wantConf)
		}
	}
}

// TestFuseLearnedFactors checks the online-learned couplings: after the
// fuser has seen consistent samples, busy_frac (cycles/ClockHz) and
// stall_rate (cycles − instr/BaseIPC) reconstruct through coefficients
// it was never told.
func TestFuseLearnedFactors(t *testing.T) {
	f := newFuser(t, fuse.Config{}, len(cpu.MetricNames))
	warmUp(f, 50, hpcVec)
	for _, comp := range []int{4, 10} {
		clean := hpcVec(200 + comp)
		bad := append([]float64(nil), clean...)
		bad[comp] = math.Inf(1)
		res := f.Fuse(bad)
		got, want := res.Values[comp], clean[comp]
		if rel := math.Abs(got-want) / math.Max(math.Abs(want), 1e-12); rel > 0.05 {
			t.Errorf("comp %d: learned imputation %v, want %v (rel err %v)", comp, got, want, rel)
		}
	}
}

// TestFuseShare4 checks the OS CPU-share factor: a missing idle reading
// reconstructs as 100 minus the accepted shares.
func TestFuseShare4(t *testing.T) {
	f := newFuser(t, fuse.Config{}, len(osstat.MetricNames))
	warmUp(f, 10, osVec)
	clean := osVec(33)
	bad := append([]float64(nil), clean...)
	bad[3] = math.NaN()
	res := f.Fuse(bad)
	if got, want := res.Values[3], clean[3]; math.Abs(got-want) > 1e-9 {
		t.Errorf("idle imputed %v, want %v", got, want)
	}
}

// TestFuseStuckDetection freezes a previously varying stream and checks
// the run detector flags it, while a counter that is constant from
// birth is never flagged.
func TestFuseStuckDetection(t *testing.T) {
	cfg := fuse.Config{StuckRun: 4}
	f := newFuser(t, cfg, 3)
	vec := func(t int) []float64 {
		return []float64{100 + float64(t), 5, 20 + float64(t%2)} // comp 1 constant from birth
	}
	for step := 0; step < 20; step++ {
		res := f.Fuse(vec(step))
		if res.Imputed != 0 {
			t.Fatalf("step %d: varying stream imputed %d", step, res.Imputed)
		}
	}
	frozen := vec(20)
	for rep := 1; rep <= 10; rep++ {
		res := f.Fuse(frozen)
		wantStuck := 0
		if rep >= 4 {
			wantStuck = 2 // comps 0 and 2 frozen; comp 1 is legitimately constant
		}
		if res.Imputed != wantStuck {
			t.Fatalf("repeat %d: imputed %d, want %d", rep, res.Imputed, wantStuck)
		}
		for i, v := range res.Values {
			if nan := math.IsNaN(v) || math.IsInf(v, 0); nan {
				t.Fatalf("repeat %d comp %d: non-finite emission %v", rep, i, v)
			}
		}
	}
	// Recovery: the first changed reading is accepted again (31 keeps
	// every component distinct from the frozen step-20 values).
	res := f.Fuse(vec(31))
	if res.Imputed != 0 {
		t.Errorf("post-freeze sample imputed %d, want 0", res.Imputed)
	}
}

// TestFuseGateAndVeto: a lone counter spiking far outside the predicted
// band is gated and reconstructed, but a coherent jump of the whole
// vector (a load-phase change) stands the gate down.
func TestFuseGateAndVeto(t *testing.T) {
	dim := len(cpu.MetricNames)
	f := newFuser(t, fuse.Config{}, dim)
	warmUp(f, 30, hpcVec)

	spiked := append([]float64(nil), hpcVec(31)...)
	spiked[12] *= 50 // itlb_miss_rate reads 50× out of band
	res := f.Fuse(spiked)
	if res.Gated != 1 || res.Imputed != 1 {
		t.Fatalf("spike: gated=%d imputed=%d, want 1/1", res.Gated, res.Imputed)
	}
	if got := res.Values[12]; got == spiked[12] {
		t.Error("gated reading was emitted raw")
	}

	// Whole-vector regime change: every counter jumps 3×.
	f2 := newFuser(t, fuse.Config{}, dim)
	warmUp(f2, 30, hpcVec)
	jump := hpcVec(31)
	for i := range jump {
		jump[i] *= 3
	}
	res = f2.Fuse(jump)
	if res.Gated != 0 || res.Imputed != 0 {
		t.Errorf("coherent jump: gated=%d imputed=%d, want 0/0 (veto)", res.Gated, res.Imputed)
	}
}

// TestFuseClampsImputedMisses: an imputed hpc_l2_miss_rate that comes
// out above the accepted hpc_l2_ref_rate is emitted as the ref rate
// (misses cannot exceed references). The miss rate is reconstructed as
// miss_ratio·ref_rate, so a miss ratio above 1 drives it over; a large
// Warmup keeps the gate from rejecting that ratio first.
func TestFuseClampsImputedMisses(t *testing.T) {
	dim := len(cpu.MetricNames)
	f := newFuser(t, fuse.Config{Warmup: 1000}, dim)
	warmUp(f, 20, hpcVec)
	in := hpcVec(20)
	in[8] = 1.5 // hpc_l2_miss_ratio
	in[7] = math.NaN()
	res := f.Fuse(in)
	if res.Imputed != 1 || res.Gated != 0 {
		t.Fatalf("imputed=%d gated=%d, want 1/0", res.Imputed, res.Gated)
	}
	if got, want := res.Values[7], in[6]; got != want {
		t.Errorf("imputed miss rate %v, want the ref rate %v", got, want)
	}
	wantConf := (float64(dim-1)*fuse.ConfAccepted + fuse.ConfFactor) / float64(dim)
	if math.Abs(res.Confidence-wantConf) > 1e-12 {
		t.Errorf("confidence %v, want %v", res.Confidence, wantConf)
	}
}

// TestFusePriorImputation: a missing counter that no factor covers
// (hpc_l1d_ref_rate at 5, hpc_branch_rate at 14) emits its filter level
// floored at 0, at ConfPrior. Both counters read a constant from birth,
// so the level is exactly that constant.
func TestFusePriorImputation(t *testing.T) {
	dim := len(cpu.MetricNames)
	f := newFuser(t, fuse.Config{}, dim)
	vec := func(t int) []float64 {
		v := hpcVec(t)
		v[5], v[14] = 3.5e8, -2
		return v
	}
	warmUp(f, 20, vec)
	in := vec(20)
	in[5], in[14] = math.NaN(), math.Inf(-1)
	res := f.Fuse(in)
	if res.Imputed != 2 {
		t.Fatalf("imputed %d counters, want 2", res.Imputed)
	}
	if got := res.Values[5]; got != 3.5e8 {
		t.Errorf("counter 5 emitted %v, want its level 3.5e8", got)
	}
	if got := res.Values[14]; got != 0 {
		t.Errorf("counter 14 emitted %v, want its negative level floored at 0", got)
	}
	wantConf := (float64(dim-2)*fuse.ConfAccepted + 2*fuse.ConfPrior) / float64(dim)
	if math.Abs(res.Confidence-wantConf) > 1e-12 {
		t.Errorf("confidence %v, want %v", res.Confidence, wantConf)
	}
}

// TestFuseShortVector: a vector shorter than the fuser's dimension reads
// its missing tail as missing readings, which are imputed from their
// accepted peers (hpc_bus_util from the bus rate, hpc_mem_per_cycle from
// references over cycles).
func TestFuseShortVector(t *testing.T) {
	dim := len(cpu.MetricNames)
	f := newFuser(t, fuse.Config{}, dim)
	warmUp(f, 20, hpcVec)
	clean := hpcVec(20)
	res := f.Fuse(clean[:dim-2])
	if res.Imputed != 2 || len(res.Values) != dim {
		t.Fatalf("imputed=%d len=%d, want 2/%d", res.Imputed, len(res.Values), dim)
	}
	for _, comp := range []int{dim - 2, dim - 1} {
		got, want := res.Values[comp], clean[comp]
		if rel := math.Abs(got-want) / want; rel > 1e-9 {
			t.Errorf("tail counter %d imputed %v, want %v", comp, got, want)
		}
	}
}

// TestFuseReset clears filter state but keeps learned coefficients.
func TestFuseReset(t *testing.T) {
	f := newFuser(t, fuse.Config{}, len(cpu.MetricNames))
	warmUp(f, 50, hpcVec)
	f.Reset()
	// Immediately after reset nothing is stuck or gated.
	res := f.Fuse(hpcVec(0))
	if res.Imputed != 0 || res.Gated != 0 {
		t.Fatalf("post-reset sample imputed=%d gated=%d", res.Imputed, res.Gated)
	}
	// Learned coefficients survive: busy_frac still reconstructs.
	bad := hpcVec(1)
	bad[4] = math.NaN()
	want := hpcVec(1)[4]
	res = f.Fuse(bad)
	if rel := math.Abs(res.Values[4]-want) / want; rel > 0.05 {
		t.Errorf("learned coefficient lost across Reset: imputed %v, want %v", res.Values[4], want)
	}
}

// TestFuseZeroAllocs pins the steady-state allocation guarantee on both
// the clean path and the imputation path.
func TestFuseZeroAllocs(t *testing.T) {
	f := newFuser(t, fuse.Config{}, len(cpu.MetricNames))
	warmUp(f, 20, hpcVec)
	var stream [8][]float64
	for i := range stream {
		stream[i] = hpcVec(21 + i)
	}
	bad := append([]float64(nil), stream[0]...)
	bad[0] = math.NaN()
	step := 0
	if n := testing.AllocsPerRun(100, func() {
		f.Fuse(stream[step%len(stream)])
		step++
		f.Fuse(bad)
	}); n != 0 {
		t.Errorf("Fuse allocates %v times per call pair, want 0", n)
	}
}

// TestFuseDeterministicReplay: two fusers fed the identical corrupted
// stream emit bit-identical values and confidences.
func TestFuseDeterministicReplay(t *testing.T) {
	mk := func() *fuse.Fuser { return newFuser(t, fuse.Config{}, len(cpu.MetricNames)) }
	f1, f2 := mk(), mk()
	for step := 0; step < 100; step++ {
		in := hpcVec(step)
		if step%7 == 3 {
			in[step%len(in)] = math.NaN()
		}
		r1 := f1.Fuse(in)
		r2 := f2.Fuse(in)
		if r1.Confidence != r2.Confidence || r1.Imputed != r2.Imputed || r1.Gated != r2.Gated {
			t.Fatalf("step %d: summaries diverged", step)
		}
		for i := range r1.Values {
			if math.Float64bits(r1.Values[i]) != math.Float64bits(r2.Values[i]) {
				t.Fatalf("step %d comp %d: %v vs %v", step, i, r1.Values[i], r2.Values[i])
			}
		}
	}
}

// TestFusedLayoutMatchesCollectors pins the factor graph's counter
// indices against the collectors' actual name order and the
// metrics.LevelCombined concatenation (OS first, then HPC): a collector
// reorder must break this test, not silently skew the fusion priors.
func TestFusedLayoutMatchesCollectors(t *testing.T) {
	hpcNames := map[int]string{
		0: "hpc_instr_rate", 1: "hpc_cycle_rate", 2: "hpc_ipc", 3: "hpc_cpi",
		4: "hpc_busy_frac", 6: "hpc_l2_ref_rate", 7: "hpc_l2_miss_rate",
		8: "hpc_l2_miss_ratio", 9: "hpc_l2_mpki", 10: "hpc_stall_rate",
		11: "hpc_stall_frac", 12: "hpc_itlb_miss_rate", 13: "hpc_itlb_mpki",
		16: "hpc_bus_access_rate", 17: "hpc_bus_util", 18: "hpc_mem_per_cycle",
	}
	for idx, want := range hpcNames {
		if got := cpu.MetricNames[idx]; got != want {
			t.Errorf("cpu.MetricNames[%d] = %q, want %q — update internal/fuse/layout.go", idx, got, want)
		}
	}
	osNames := map[int]string{
		0: "os_cpu_user", 1: "os_cpu_system", 2: "os_cpu_iowait", 3: "os_cpu_idle",
		18: "os_kbmemused", 19: "os_pct_memused", 22: "os_kbcommit",
	}
	for idx, want := range osNames {
		if got := osstat.MetricNames[idx]; got != want {
			t.Errorf("osstat.MetricNames[%d] = %q, want %q — update internal/fuse/layout.go", idx, got, want)
		}
	}

	// The combined layout's OS-first ordering matches LevelCombined:
	// a combined vector is the OS vector followed by the HPC vector, so
	// the HPC factors must sit at offset len(osstat.MetricNames). Probe
	// behaviourally: corrupt the combined vector's hpc_ipc slot and
	// check it reconstructs from the hpc instr/cycles slots.
	nHPC, nOS := len(cpu.MetricNames), len(osstat.MetricNames)
	f := newFuser(t, fuse.Config{}, nOS+nHPC)
	combVec := func(t int) []float64 { return append(osVec(t), hpcVec(t)...) }
	warmUp(f, 10, combVec)
	clean := combVec(11)
	bad := append([]float64(nil), clean...)
	bad[nOS+2] = math.NaN() // hpc_ipc in combined coordinates
	res := f.Fuse(bad)
	if got, want := res.Values[nOS+2], clean[nOS+2]; math.Abs(got-want)/want > 1e-9 {
		t.Errorf("combined hpc_ipc imputed %v, want %v — HPC offset wrong", got, want)
	}
	if metrics.LevelCombined.String() != "OS+HPC" {
		t.Errorf("LevelCombined renders %q, want OS+HPC (OS first)", metrics.LevelCombined.String())
	}
}
