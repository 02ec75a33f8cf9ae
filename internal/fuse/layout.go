package fuse

// The factor graph. Each factor is one linear (or ratio) constraint tying
// a small set of counters together, taken straight from how the collectors
// derive their metrics:
//
//   - cpu.Collector computes every ratio metric (IPC, CPI, miss ratios,
//     MPKI, stall fraction, memory accesses per cycle) from the same
//     jittered raw counts, so those couplings hold exactly on the emitted
//     vector — a rejected reading of one participant can be reconstructed
//     from the others with no modeling error at all.
//   - bus transactions are L2 miss fills plus ~35% write-backs
//     (bus = 1.35·l2_miss), and bus utilization is bus·64B/6.4GB/s.
//   - stall cycles are cycles − instructions/BaseIPC and busy fraction is
//     cycles/ClockHz; BaseIPC and ClockHz are machine constants the fuser
//     does not know, so those coefficients are learned online (EMA over
//     samples where every participant was accepted).
//   - osstat.Collector splits CPU time into user/system/iowait/idle
//     percentages that sum to ~100 (each independently jittered, so the
//     constraint is approximate), and the OS busy share tracks the
//     hardware busy fraction on the combined layout.
//
// Factor order within a layout is significant: imputation takes the first
// factor that yields a finite estimate, so exact couplings come first.

// Factor kinds.
const (
	// kindRatio: x[a] = K·x[b]/x[c]. Solvable for any participant.
	kindRatio = iota
	// kindProp: x[a] = K·x[b]. Solvable for either participant.
	kindProp
	// kindLearnedProp: x[a] = lr·x[b] with lr learned online.
	kindLearnedProp
	// kindLearnedDiff: x[a] = x[b] − lr·x[c] with lr learned online.
	kindLearnedDiff
	// kindShare4: x[a] + x[a+1] + x[a+2] + x[a+3] = K. Imputes one
	// missing participant from the other three.
	kindShare4
	// kindLearnedSum2: x[a] = lr·(x[b] + x[c]) with lr learned online.
	kindLearnedSum2
	// kindClampLE: x[a] ≤ x[b]. Never imputes; clamps an already
	// imputed x[a] down to an accepted x[b].
	kindClampLE
)

// factor is one edge set of the graph. a, b, c index counters in the
// fused vector; K is the fixed coefficient (unused by learned kinds);
// slot indexes a learned kind's coefficient in its stream's slots.
type factor struct {
	kind    int
	a, b, c int
	k       float64
	slot    int
}

// legs lists the counters the factor touches.
func (f factor) legs() []int {
	switch f.kind {
	case kindRatio, kindLearnedDiff, kindLearnedSum2:
		return []int{f.a, f.b, f.c}
	case kindShare4:
		return []int{f.a, f.a + 1, f.a + 2, f.a + 3}
	default: // kindProp, kindLearnedProp, kindClampLE
		return []int{f.a, f.b}
	}
}

// learned reports whether the factor carries an online-learned
// coefficient.
func (f factor) learned() bool {
	switch f.kind {
	case kindLearnedProp, kindLearnedDiff, kindLearnedSum2:
		return true
	}
	return false
}

// layout is the factor graph for one vector dimension.
type layout struct {
	dim     int
	factors []factor
	// byCounter[i] lists (by index into factors) the factors that can
	// impute counter i, in imputation-preference order.
	byCounter [][]int16
	// learned and clamps list, in factor order, the factors that carry
	// a learned coefficient and the inequality clamps, so the learning
	// and clamp passes walk only the factors they act on.
	learned, clamps []int16
}

// Indices of the hardware counter metrics inside cpu.MetricNames. The
// layout test pins these against the collector's actual name order so a
// collector reorder cannot silently skew the priors.
const (
	hpcInstrRate   = 0
	hpcCycleRate   = 1
	hpcIPC         = 2
	hpcCPI         = 3
	hpcBusyFrac    = 4
	hpcL2RefRate   = 6
	hpcL2MissRate  = 7
	hpcL2MissRatio = 8
	hpcL2MPKI      = 9
	hpcStallRate   = 10
	hpcStallFrac   = 11
	hpcITLBRate    = 12
	hpcITLBMPKI    = 13
	hpcBusRate     = 16
	hpcBusUtil     = 17
	hpcMemPerCycle = 18
	hpcDim         = 19
)

// Indices of the OS metrics inside osstat.MetricNames (same pinning).
const (
	osCPUUser    = 0
	osCPUSystem  = 1
	osMemUsed    = 18
	osPctMemUsed = 19
	osKBCommit   = 22
	osDim        = 64
)

// hpcFactors builds the hardware-counter factor set at offset o into the
// fused vector.
func hpcFactors(o int) []factor {
	return []factor{
		// Exact ratio couplings: derived by the collector from the same
		// jittered raws, so reconstruction is loss-free.
		{kind: kindRatio, a: o + hpcIPC, b: o + hpcInstrRate, c: o + hpcCycleRate, k: 1},
		{kind: kindRatio, a: o + hpcCPI, b: o + hpcCycleRate, c: o + hpcInstrRate, k: 1},
		{kind: kindRatio, a: o + hpcL2MissRatio, b: o + hpcL2MissRate, c: o + hpcL2RefRate, k: 1},
		{kind: kindRatio, a: o + hpcL2MPKI, b: o + hpcL2MissRate, c: o + hpcInstrRate, k: 1000},
		{kind: kindRatio, a: o + hpcITLBMPKI, b: o + hpcITLBRate, c: o + hpcInstrRate, k: 1000},
		{kind: kindRatio, a: o + hpcStallFrac, b: o + hpcStallRate, c: o + hpcCycleRate, k: 1},
		{kind: kindRatio, a: o + hpcMemPerCycle, b: o + hpcL2RefRate, c: o + hpcCycleRate, k: 1},
		// Exact proportional couplings (fill + write-back model, bus
		// line size over bus bandwidth).
		{kind: kindProp, a: o + hpcBusRate, b: o + hpcL2MissRate, k: 1.35},
		{kind: kindProp, a: o + hpcBusUtil, b: o + hpcBusRate, k: 64.0 / 6.4e9},
		// Machine-constant couplings, coefficients learned online.
		{kind: kindLearnedProp, a: o + hpcBusyFrac, b: o + hpcCycleRate},
		{kind: kindLearnedDiff, a: o + hpcStallRate, b: o + hpcCycleRate, c: o + hpcInstrRate},
		// Physical inequality: misses cannot exceed references.
		{kind: kindClampLE, a: o + hpcL2MissRate, b: o + hpcL2RefRate},
	}
}

// osFactors builds the OS-metric factor set at offset o.
func osFactors(o int) []factor {
	return []factor{
		// user + system + iowait + idle ≈ 100% (independent jitters make
		// this approximate, unlike the hardware ratio couplings).
		{kind: kindShare4, a: o + osCPUUser, k: 100},
		// Memory metrics are derived from the same used-kB figure.
		{kind: kindLearnedProp, a: o + osPctMemUsed, b: o + osMemUsed},
		{kind: kindLearnedProp, a: o + osKBCommit, b: o + osMemUsed},
	}
}

// layouts built once; layout carries no mutable state (learned
// coefficients live in the Bank), so sharing across sites is safe.
var (
	layoutHPC      = newLayout(hpcDim, hpcFactors(0))
	layoutOS       = newLayout(osDim, osFactors(0))
	layoutCombined = newLayout(osDim+hpcDim, append(osFactors(0), append(hpcFactors(osDim),
		// Cross-level coupling: the hardware busy fraction tracks the
		// OS user+system share (coefficient ≈ 1/100, learned).
		factor{kind: kindLearnedSum2, a: osDim + hpcBusyFrac, b: osCPUUser, c: osCPUSystem})...))
)

// layoutFor returns the factor graph for a fused vector of dim counters:
// the hardware-counter layout for the cpu collector's dimension, the OS
// layout for osstat's, and their concatenation (OS first, then HPC — the
// metrics.LevelCombined order) for the combined dimension. Any other
// dimension gets a factor-free layout: per-counter filtering still
// applies, cross-counter imputation does not.
func layoutFor(dim int) *layout {
	switch dim {
	case hpcDim:
		return layoutHPC
	case osDim:
		return layoutOS
	case osDim + hpcDim:
		return layoutCombined
	default:
		return newLayout(dim, nil)
	}
}

// newLayout indexes the factor list by counter and by role.
func newLayout(dim int, factors []factor) *layout {
	l := &layout{dim: dim, factors: factors, byCounter: make([][]int16, dim)}
	for fi, f := range factors {
		if f.learned() {
			factors[fi].slot = len(l.learned)
			l.learned = append(l.learned, int16(fi))
		}
		if f.kind == kindClampLE {
			l.clamps = append(l.clamps, int16(fi))
			continue // clamps never impute
		}
		for _, leg := range f.legs() {
			if leg >= 0 && leg < dim {
				l.byCounter[leg] = append(l.byCounter[leg], int16(fi))
			}
		}
	}
	return l
}
