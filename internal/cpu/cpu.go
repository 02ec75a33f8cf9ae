// Package cpu synthesizes the hardware-performance-counter view of the
// testbed, standing in for the PerfCtr kernel patch and the Pentium
// NetBurst event counters used by the paper (§IV.B). The collector reads
// each tier's per-interval execution telemetry and produces the counter
// metrics the paper's synopses consume: instruction and cycle rates, IPC,
// L2 reference/miss behaviour, stall cycles, ITLB misses, branch statistics
// and bus traffic.
//
// Counters are sampled in "global mode": they reflect everything executing
// on the machine, not a single process. Readings carry a small
// multiplicative measurement noise, as real counter sampling does (interval
// jitter, counter multiplexing).
package cpu

import (
	"hpcap/internal/chunk"
	"hpcap/internal/server"
	"hpcap/internal/sim"
)

// MetricNames lists the hardware counter metrics in a fixed order; the
// vectors returned by Collector.Collect use the same order.
var MetricNames = []string{
	"hpc_instr_rate",        // retired instructions per second
	"hpc_cycle_rate",        // unhalted cycles per second
	"hpc_ipc",               // instructions per unhalted cycle
	"hpc_cpi",               // cycles per instruction
	"hpc_busy_frac",         // unhalted cycles / clock rate
	"hpc_l1d_ref_rate",      // L1D references per second
	"hpc_l2_ref_rate",       // L2 references (L1 misses) per second
	"hpc_l2_miss_rate",      // L2 misses per second
	"hpc_l2_miss_ratio",     // L2 misses / L2 references
	"hpc_l2_mpki",           // L2 misses per kilo-instruction
	"hpc_stall_rate",        // stall cycles per second
	"hpc_stall_frac",        // stall cycles / unhalted cycles
	"hpc_itlb_miss_rate",    // ITLB misses per second
	"hpc_itlb_mpki",         // ITLB misses per kilo-instruction
	"hpc_branch_rate",       // branch instructions per second
	"hpc_branch_miss_ratio", // mispredicted / retired branches
	"hpc_bus_access_rate",   // front-side-bus transactions per second
	"hpc_bus_util",          // bus transactions × line size / bandwidth
	"hpc_mem_per_cycle",     // L2 references per unhalted cycle
}

// NumMetrics is the number of hardware counter metrics.
var NumMetrics = len(MetricNames)

// Collector converts one tier's interval telemetry into hardware counter
// metrics.
type Collector struct {
	tier    server.TierID
	machine server.MachineConfig
	noise   float64 // relative measurement noise (std dev)
	rng     *sim.Source
	vecs    chunk.Of[float64] // Collect's vectors
}

// NewCollector returns a counter collector for the given tier. noise is the
// relative standard deviation of measurement error applied to every raw
// counter (0.02 ≈ real sampling jitter); seed makes it deterministic.
func NewCollector(tier server.TierID, machine server.MachineConfig, noise float64, seed int64) *Collector {
	return &Collector{
		tier:    tier,
		machine: machine,
		noise:   noise,
		rng:     sim.NewSource(seed),
	}
}

// Tier returns the tier this collector observes.
func (c *Collector) Tier() server.TierID { return c.tier }

// Names returns the metric names, aligned with Collect's vector.
func (c *Collector) Names() []string { return MetricNames }

// jitter applies multiplicative measurement noise to a raw counter value.
func (c *Collector) jitter(v float64) float64 {
	if c.noise <= 0 {
		return v
	}
	out := v * c.rng.Normal(1, c.noise)
	if out < 0 {
		out = 0
	}
	return out
}

// Collect derives the counter metrics for one sampling interval of length
// dt seconds into a fresh vector the caller owns for good, carved from the
// collector's chunk (see package chunk).
func (c *Collector) Collect(s server.Snapshot, dt float64) []float64 {
	return c.CollectTo(c.vecs.Carve(NumMetrics), s, dt)
}

// CollectTo derives the counter metrics into dst (metrics.Collector),
// reallocating only when dst is too small.
func (c *Collector) CollectTo(dst []float64, s server.Snapshot, dt float64) []float64 {
	ts := s.Tiers[c.tier]

	// Raw counters with sampling noise. The L1D reference count is
	// modeled as a fixed multiple of instructions; L2 references are the
	// tier-reported L1 misses.
	instr := c.jitter(ts.Instructions)
	cycles := c.jitter(ts.Cycles)
	l2ref := c.jitter(ts.L2Refs)
	l2miss := c.jitter(ts.L2Misses)
	itlb := c.jitter(ts.ITLBMisses)
	branches := c.jitter(ts.Branches)
	branchMiss := c.jitter(ts.BranchMiss)
	l1ref := c.jitter(ts.Instructions * 0.31)

	ideal := instr / c.machine.BaseIPC
	stall := cycles - ideal
	if stall < 0 {
		stall = 0
	}
	// Bus transactions: L2 miss fills plus write-backs (~35% of fills).
	bus := l2miss * 1.35

	if cap(dst) < NumMetrics {
		dst = make([]float64, NumMetrics)
	}
	v := dst[:NumMetrics]
	v[0] = instr / dt
	v[1] = cycles / dt
	v[2] = ratio(instr, cycles)
	v[3] = ratio(cycles, instr)
	v[4] = cycles / dt / c.machine.ClockHz
	v[5] = l1ref / dt
	v[6] = l2ref / dt
	v[7] = l2miss / dt
	v[8] = ratio(l2miss, l2ref)
	v[9] = ratio(l2miss, instr) * 1000
	v[10] = stall / dt
	v[11] = ratio(stall, cycles)
	v[12] = itlb / dt
	v[13] = ratio(itlb, instr) * 1000
	v[14] = branches / dt
	v[15] = ratio(branchMiss, branches)
	v[16] = bus / dt
	// 64-byte lines over a 6.4 GB/s front-side bus.
	v[17] = bus * 64 / dt / 6.4e9
	v[18] = ratio(l2ref, cycles)
	return v
}

// ratio returns a/b, or 0 when b is 0 (idle interval).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
