// Package fuse de-noises per-tier 1-second counter vectors before they
// reach the window aggregator, reproducing the idea of BayesPerf
// (PAPERS.md): hardware performance counters are multiplexed over a few
// physical registers, so individual reads are noisy, occasionally
// scaled wildly, stuck, or missing — but the counters are not
// independent, and a small linear-Gaussian factor graph over their
// physical couplings (IPC = instructions/cycles, bus traffic = miss
// fills + write-backs, CPU shares sum to 100%, …) lets a rejected
// reading be reconstructed from its accepted peers.
//
// A Fuser holds one scalar Kalman filter per counter (state: level m,
// variance p, running magnitude scale) plus the factor graph for its
// vector layout (LayoutFor). Each Fuse call is one deterministic
// O(counters + factors) pass with no allocation in steady state:
//
//  1. Classify every reading: non-finite values are missing; a counter
//     that has previously varied but has now repeated the same bit
//     pattern Config.StuckRun times is stuck; a reading further than
//     Config.GateSigmas predicted standard deviations from the
//     filter's one-step prediction is gated. If more than half the
//     vector would be gated at once the gate stands down for the whole
//     sample — a coherent jump across counters is a load-phase change,
//     not corruption.
//  2. Emit. Accepted readings pass through unchanged (fusion never
//     perturbs a trusted stream — on a clean trace the fused output is
//     bit-identical to the input) and update their filters. Rejected
//     readings are imputed: first from the factor graph using accepted
//     peers (exact for the collector's ratio couplings), else from the
//     filter prior; the imputed value also feeds the filter so it keeps
//     tracking through fault bursts.
//
// Every sample carries a confidence in [0, 1]: the mean over counters
// of 1 (accepted), ConfFactor (factor-imputed), or ConfPrior
// (prior-imputed). The serving layer averages it per window; windows
// below Config.ConfidenceFloor are flagged LowConfidence, walk the
// degradation ladder, and are refused by the registry's retrain guard —
// de-noising must not let a fault storm masquerade as clean training
// data.
//
// Determinism: Fuse is a pure function of the Fuser's state and its
// input — no clocks, no randomness, no map iteration — so per-site
// fused streams are byte-reproducible across goroutine interleavings,
// worker counts, shard counts, and the network ingest path, like every
// other pipeline stage.
package fuse

import (
	"errors"
	"fmt"
	"math"

	"hpcap/internal/core"
)

// Confidence classes attached to each fused counter.
const (
	// ConfAccepted: the raw reading was trusted and passed through.
	ConfAccepted = 1.0
	// ConfFactor: the reading was rejected but reconstructed from
	// physically coupled peers.
	ConfFactor = 0.6
	// ConfPrior: the reading was rejected and only the filter's own
	// prediction was available.
	ConfPrior = 0.3
)

// Classification codes (per counter, per sample).
const (
	clsAccept = uint8(iota)
	clsMissing
	clsStuck
	clsGated
)

// Numeric guards: state is clamped so that arbitrarily adversarial
// inputs (fuzzed ±Inf/NaN/1e308 streams) can never drive the filter to
// a non-finite emission.
const (
	maxVar   = 1e300
	maxScale = 1e150
	scaleEMA = 0.1
	lrEMA    = 0.1
)

// counterState is one scalar filter.
type counterState struct {
	m, p, scale float64
	lastBits    uint64
	run         int32
	n           int32
	varied      bool
	seen        bool
}

// Fuser fuses one stream of fixed-dimension counter vectors (one site,
// one tier). Not safe for concurrent use; the serving pipelines hold
// one per (site, tier) under the site's ingest ordering.
type Fuser struct {
	cfg   Config
	lay   *Layout
	lr    []float64 // learned factor coefficients
	lrSet []bool
	st    []counterState
	out   []float64
	cls   []uint8
}

// Result is one fused sample.
type Result struct {
	// Values is the fused vector, always finite. It is owned by the
	// Fuser and valid only until the next Fuse call; callers must copy
	// or fold it immediately.
	Values []float64
	// Confidence is the mean per-counter confidence in [0, 1].
	Confidence float64
	// Imputed is how many counters were replaced (missing, stuck, or
	// gated readings).
	Imputed int
	// Gated is how many counters the innovation gate rejected (also
	// counted in Imputed).
	Gated int
}

// New returns a Fuser for vectors of dim counters, with the factor
// graph LayoutFor(dim) selects. The configuration is validated first;
// errors wrap core.ErrBadConfig.
func New(cfg Config, dim int) (*Fuser, error) {
	if errs := cfg.Validate(); len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	if dim <= 0 {
		return nil, fmt.Errorf("fuse: %w: dimension %d must be positive", core.ErrBadConfig, dim)
	}
	lay := LayoutFor(dim)
	return &Fuser{
		cfg:   cfg.withDefaults(),
		lay:   lay,
		lr:    make([]float64, len(lay.factors)),
		lrSet: make([]bool, len(lay.factors)),
		st:    make([]counterState, dim),
		out:   make([]float64, dim),
		cls:   make([]uint8, dim),
	}, nil
}

// Config returns the resolved configuration the Fuser runs with.
func (f *Fuser) Config() Config { return f.cfg }

// Dim returns the vector dimension.
func (f *Fuser) Dim() int { return f.lay.dim }

// Reset clears the per-counter filter state (after a stream gap resets
// the site's temporal history, stale levels must not gate the fresh
// stream). Learned factor coefficients are machine constants and
// survive the reset.
func (f *Fuser) Reset() {
	for i := range f.st {
		f.st[i] = counterState{}
	}
}

// nonFinite reports NaN or ±Inf without branching on both.
func nonFinite(v float64) bool {
	return math.Float64bits(v)&0x7FF0000000000000 == 0x7FF0000000000000
}

// at returns the i-th raw reading, treating a short vector's missing
// tail as unreadable.
func (f *Fuser) at(values []float64, i int) float64 {
	if i < len(values) {
		return values[i]
	}
	return math.NaN()
}

// Fuse classifies, imputes, and filters one raw vector. values is read
// during the call and never retained or mutated; the fused vector is
// returned in Result.Values (Fuser-owned storage).
func (f *Fuser) Fuse(values []float64) Result {
	dim := f.lay.dim
	gated := 0

	// Pass 1: classify every reading against its filter.
	for i := 0; i < dim; i++ {
		y := f.at(values, i)
		cs := &f.st[i]
		if nonFinite(y) {
			f.cls[i] = clsMissing
			continue
		}
		bits := math.Float64bits(y)
		switch {
		case !cs.seen:
			cs.seen = true
			cs.run = 1
		case bits == cs.lastBits:
			if cs.run < math.MaxInt32 {
				cs.run++
			}
		default:
			cs.varied = true
			cs.run = 1
		}
		cs.lastBits = bits
		if cs.varied && int(cs.run) >= f.cfg.StuckRun {
			f.cls[i] = clsStuck
			continue
		}
		if int(cs.n) >= f.cfg.Warmup && cs.n > 0 {
			q := f.cfg.ProcessNoise * cs.scale
			r := f.cfg.MeasurementNoise * cs.scale
			s := cs.p + q*q + r*r
			d := y - cs.m
			if s > 0 && d*d > f.cfg.GateSigmas*f.cfg.GateSigmas*s {
				f.cls[i] = clsGated
				gated++
				continue
			}
		}
		f.cls[i] = clsAccept
	}

	// Coherent-jump veto: a majority of counters moving out of gate at
	// once is a regime change; trust the stream.
	if gated > dim/2 {
		for i := 0; i < dim; i++ {
			if f.cls[i] == clsGated {
				f.cls[i] = clsAccept
			}
		}
		gated = 0
	}

	// Pass 2: filter updates and emission, in counter order.
	imputed := 0
	confSum := 0.0
	for i := 0; i < dim; i++ {
		cs := &f.st[i]
		q := f.cfg.ProcessNoise * cs.scale
		cs.p += q * q
		if nonFinite(cs.p) || cs.p > maxVar {
			cs.p = maxVar
		}
		r := f.cfg.MeasurementNoise * cs.scale
		if f.cls[i] == clsAccept {
			y := values[i]
			f.fold(cs, r, y)
			ay := math.Abs(y)
			if cs.scale == 0 {
				cs.scale = ay
			} else {
				cs.scale += scaleEMA * (ay - cs.scale)
			}
			if cs.scale > maxScale {
				cs.scale = maxScale
			}
			if cs.n < math.MaxInt32 {
				cs.n++
			}
			f.out[i] = y
			confSum += ConfAccepted
			continue
		}
		imputed++
		if z, ok := f.impute(i, values); ok {
			f.fold(cs, r, z)
			f.out[i] = z
			confSum += ConfFactor
		} else {
			z := cs.m
			if z < 0 || nonFinite(z) {
				z = 0
			}
			f.out[i] = z
			confSum += ConfPrior
		}
	}

	// Inequality clamps apply to imputed values only: a reconstructed
	// reading must not violate a physical bound its accepted peer pins.
	for _, fa := range f.lay.factors {
		if fa.kind != kindClampLE {
			continue
		}
		if f.cls[fa.a] != clsAccept && f.cls[fa.b] == clsAccept && f.out[fa.a] > values[fa.b] {
			f.out[fa.a] = values[fa.b]
		}
	}

	// Learning pass: refresh learned coefficients from samples where
	// every participant was accepted.
	f.learn(values)

	return Result{
		Values:     f.out,
		Confidence: confSum / float64(dim),
		Imputed:    imputed,
		Gated:      gated,
	}
}

// fold runs one Kalman measurement update with observation z and
// measurement noise r, keeping the state finite under any input.
func (f *Fuser) fold(cs *counterState, r, z float64) {
	s := cs.p + r*r
	k := 1.0
	if s > 0 {
		k = cs.p / s
	}
	cs.m += k * (z - cs.m)
	cs.p *= 1 - k
	if nonFinite(cs.m) {
		cs.m = z
	}
	if nonFinite(cs.p) || cs.p > maxVar {
		cs.p = maxVar
	}
}

// accepted reports whether counter j was accepted this sample.
func (f *Fuser) accepted(j int) bool { return f.cls[j] == clsAccept }

// impute reconstructs counter i from the first factor whose other
// participants were all accepted and whose solution is finite.
func (f *Fuser) impute(i int, values []float64) (float64, bool) {
	for _, fi := range f.lay.byCounter[i] {
		fa := f.lay.factors[fi]
		z := math.NaN()
		switch fa.kind {
		case kindRatio: // x[a] = K·x[b]/x[c]
			switch {
			case i == fa.a && f.accepted(fa.b) && f.accepted(fa.c):
				z = fa.k * values[fa.b] / values[fa.c]
			case i == fa.b && f.accepted(fa.a) && f.accepted(fa.c):
				z = values[fa.a] * values[fa.c] / fa.k
			case i == fa.c && f.accepted(fa.a) && f.accepted(fa.b):
				z = fa.k * values[fa.b] / values[fa.a]
			}
		case kindProp: // x[a] = K·x[b]
			switch {
			case i == fa.a && f.accepted(fa.b):
				z = fa.k * values[fa.b]
			case i == fa.b && f.accepted(fa.a):
				z = values[fa.a] / fa.k
			}
		case kindLearnedProp: // x[a] = lr·x[b]
			if !f.lrSet[fi] {
				break
			}
			lr := f.lr[fi]
			switch {
			case i == fa.a && f.accepted(fa.b):
				z = lr * values[fa.b]
			case i == fa.b && f.accepted(fa.a):
				z = values[fa.a] / lr
			}
		case kindLearnedDiff: // x[a] = x[b] − lr·x[c]
			if !f.lrSet[fi] {
				break
			}
			lr := f.lr[fi]
			switch {
			case i == fa.a && f.accepted(fa.b) && f.accepted(fa.c):
				z = values[fa.b] - lr*values[fa.c]
			case i == fa.b && f.accepted(fa.a) && f.accepted(fa.c):
				z = values[fa.a] + lr*values[fa.c]
			case i == fa.c && f.accepted(fa.a) && f.accepted(fa.b):
				z = (values[fa.b] - values[fa.a]) / lr
			}
		case kindShare4: // x[a]+x[a+1]+x[a+2]+x[a+3] = K
			z = fa.k
			ok := true
			for j := fa.a; j < fa.a+4; j++ {
				if j == i {
					continue
				}
				if !f.accepted(j) {
					ok = false
					break
				}
				z -= values[j]
			}
			if !ok {
				z = math.NaN()
			}
		case kindLearnedSum2: // x[a] = lr·(x[b]+x[c])
			if !f.lrSet[fi] {
				break
			}
			lr := f.lr[fi]
			switch {
			case i == fa.a && f.accepted(fa.b) && f.accepted(fa.c):
				z = lr * (values[fa.b] + values[fa.c])
			case i == fa.b && f.accepted(fa.a) && f.accepted(fa.c):
				z = values[fa.a]/lr - values[fa.c]
			case i == fa.c && f.accepted(fa.a) && f.accepted(fa.b):
				z = values[fa.a]/lr - values[fa.b]
			}
		}
		if !nonFinite(z) {
			if z < 0 {
				z = 0
			}
			return z, true
		}
	}
	return 0, false
}

// learn refreshes the learned factor coefficients (EMA over samples
// where every participant was accepted).
func (f *Fuser) learn(values []float64) {
	for fi, fa := range f.lay.factors {
		if !fa.learned() {
			continue
		}
		ratio := math.NaN()
		switch fa.kind {
		case kindLearnedProp:
			if f.accepted(fa.a) && f.accepted(fa.b) {
				ratio = values[fa.a] / values[fa.b]
			}
		case kindLearnedDiff:
			if f.accepted(fa.a) && f.accepted(fa.b) && f.accepted(fa.c) {
				ratio = (values[fa.b] - values[fa.a]) / values[fa.c]
			}
		case kindLearnedSum2:
			if f.accepted(fa.a) && f.accepted(fa.b) && f.accepted(fa.c) {
				ratio = values[fa.a] / (values[fa.b] + values[fa.c])
			}
		}
		if nonFinite(ratio) {
			continue
		}
		if !f.lrSet[fi] {
			f.lr[fi], f.lrSet[fi] = ratio, true
		} else {
			f.lr[fi] += lrEMA * (ratio - f.lr[fi])
			if nonFinite(f.lr[fi]) {
				f.lr[fi], f.lrSet[fi] = 0, false
			}
		}
	}
}
