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
// A Bank holds, per stream, one scalar Kalman filter per counter (state:
// level m, variance p, running magnitude scale) and the learned factor
// coefficients, plus the factor graph for its vector layout
// (layoutFor). Each Fuse call is deterministic, costs
// O(counters + factors) and allocates nothing in steady state; a clean
// sample costs one walk over the counters:
//
//  1. Classify every reading, and fold an accepted one at once: non-
//     finite values (and a short vector's tail) are missing; a counter
//     that has previously varied but has now repeated the same bit
//     pattern Config.StuckRun times is stuck; a reading further than
//     Config.GateSigmas predicted standard deviations from the
//     filter's one-step prediction is gated. Anything else is accepted:
//     it is emitted unchanged (fusion never perturbs a trusted stream —
//     on a clean trace the fused output is bit-identical to the input)
//     and the same iteration runs its filter's prediction and Kalman
//     update.
//  2. Veto. If more than half the vector was gated the gate stands down
//     for the whole sample — a coherent jump across counters is a
//     load-phase change, not corruption — and the gated readings are
//     folded exactly as accepted ones.
//  3. Only if a reading is still rejected, a second walk imputes it:
//     first from the factor graph using accepted peers (exact for the
//     collector's ratio couplings), else from the filter prior; the
//     imputed value also feeds the filter so it keeps tracking through
//     fault bursts. Inequality clamps then bound imputed values by
//     their accepted peers.
//
// Deferring the rejected readings changes no bit: the veto only turns
// gated readings into accepted ones, so nothing accepted in the first
// walk is ever reclassified; imputation reads only the raw values and
// the final classes; and every filter belongs to one counter.
//
// Every sample carries a confidence in [0, 1]: the mean over counters
// of 1 (accepted), ConfFactor (factor-imputed), or ConfPrior
// (prior-imputed). The serving layer averages it per window; windows
// below Config.ConfidenceFloor are flagged LowConfidence, walk the
// degradation ladder, and are refused by the registry's retrain guard —
// de-noising must not let a fault storm masquerade as clean training
// data.
//
// Determinism: Fuse is a pure function of the stream's state and its
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

// counterState is one scalar filter, 40 bytes.
type counterState struct {
	m, p, scale float64
	lastBits    uint64
	// run counts the consecutive readings with bits lastBits in its low
	// 31 bits (0: no reading since the last reset) and sets runVaried
	// once the counter has read two different values.
	run uint32
	n   int32
}

const (
	runVaried = 1 << 31
	runMax    = runVaried - 1
)

// pageStreams is how many streams one arena page of a Bank holds.
const pageStreams = 64

// Bank fuses many streams of fixed-dimension counter vectors — in
// serving, every (site, tier) of one engine — under one config and one
// layout. Each stream's filters and learned coefficients live in paged
// arenas: a page holds pageStreams streams, is allocated whole when Add
// opens it, and never moves. The fused-vector and classification
// scratch is shared by all streams. Not safe for concurrent use.
type Bank struct {
	cfg Config
	lay *layout
	n   int
	st  [][]counterState // pages of [stream][dim] filter state
	lr  [][]float64      // pages of [stream][learned factor] coefficients; non-finite: not learned
	out []float64
	cls []uint8
}

// Fuser fuses one stream: a Bank holding a single stream in a page of
// its own size.
type Fuser struct{ b *Bank }

// Result is one fused sample.
type Result struct {
	// Values is the fused vector, always finite. It is the Bank's
	// scratch, valid only until the next Fuse on the same Bank; callers
	// must copy or fold it immediately.
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

// NewBank returns an empty Bank for vectors of dim counters, with the
// factor graph layoutFor(dim) selects. The configuration is validated
// first; errors wrap core.ErrBadConfig.
func NewBank(cfg Config, dim int) (*Bank, error) {
	if errs := cfg.Validate(); len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	if dim <= 0 {
		return nil, fmt.Errorf("fuse: %w: dimension %d must be positive", core.ErrBadConfig, dim)
	}
	// The scratch is written on every Fuse. Its allocations are rounded
	// up to whole 64-byte lines, which the allocator places line-aligned,
	// so the banks of shards running in parallel never write one line.
	return &Bank{
		cfg: cfg.withDefaults(),
		lay: layoutFor(dim),
		out: make([]float64, (dim+7)&^7)[:dim:dim],
		cls: make([]uint8, (dim+63)&^63)[:dim:dim],
	}, nil
}

// New returns a Fuser for vectors of dim counters; see NewBank.
func New(cfg Config, dim int) (*Fuser, error) {
	b, err := NewBank(cfg, dim)
	if err != nil {
		return nil, err
	}
	b.addPage(1)
	b.n = 1
	return &Fuser{b}, nil
}

// Config returns the resolved configuration the Bank runs with.
func (b *Bank) Config() Config { return b.cfg }

// Add opens a new stream, in its reset state with nothing learned, and
// returns its index: streams are numbered 0, 1, 2, … in the order
// added. It allocates only when it opens a page.
func (b *Bank) Add() int {
	s := b.n
	if s%pageStreams == 0 {
		b.addPage(pageStreams)
	}
	b.n++
	return s
}

// addPage appends one page for the given number of streams.
func (b *Bank) addPage(streams int) {
	lr := make([]float64, streams*len(b.lay.learned))
	for i := range lr {
		lr[i] = math.NaN()
	}
	b.st = append(b.st, make([]counterState, streams*b.lay.dim))
	b.lr = append(b.lr, lr)
}

// stream returns stream s's filters and learned coefficients.
func (b *Bank) stream(s int) ([]counterState, []float64) {
	dim, nl := b.lay.dim, len(b.lay.learned)
	pg, off := s/pageStreams, s%pageStreams
	return b.st[pg][off*dim : (off+1)*dim : (off+1)*dim], b.lr[pg][off*nl : (off+1)*nl : (off+1)*nl]
}

// Reset clears stream s's filter state (after a stream gap resets the
// site's temporal history, stale levels must not gate the fresh
// stream). Learned factor coefficients are machine constants and
// survive the reset.
func (b *Bank) Reset(s int) {
	st, _ := b.stream(s)
	clear(st)
}

// Reset clears the filter state; see Bank.Reset.
func (f *Fuser) Reset() { f.b.Reset(0) }

// Fuse fuses one vector; see Bank.Fuse.
func (f *Fuser) Fuse(values []float64) Result { return f.b.Fuse(0, values) }

// nonFinite reports NaN or ±Inf without branching on both.
func nonFinite(v float64) bool {
	return math.Float64bits(v)&0x7FF0000000000000 == 0x7FF0000000000000
}

// capVar holds a variance finite and at most maxVar.
func capVar(p float64) float64 {
	if nonFinite(p) || p > maxVar {
		return maxVar
	}
	return p
}

// predict returns the filter's one-step predicted variance p + q²
// (not yet capped) and its measurement noise r; q and r are the
// configured noises scaled by the running magnitude.
func (cs *counterState) predict(pn, mn float64) (p, r float64) {
	q := pn * cs.scale
	return cs.p + q*q, mn * cs.scale
}

// fold runs one Kalman measurement update with observation z on the
// predicted variance p and measurement noise r, keeping the state
// finite under any input. Fuse inlines the same update for the readings
// it accepts in its first walk.
func (cs *counterState) fold(p, r, z float64) {
	p = capVar(p)
	s := p + r*r
	k := 1.0
	if s > 0 {
		k = p / s
	}
	m := cs.m + k*(z-cs.m)
	if nonFinite(m) {
		m = z
	}
	cs.m, cs.p = m, capVar(p*(1-k))
}

// track counts an accepted reading y and folds its magnitude into the
// running scale.
func (cs *counterState) track(y float64) {
	ay := math.Abs(y)
	scale := ay
	if cs.scale != 0 {
		scale = cs.scale + scaleEMA*(ay-cs.scale)
	}
	if scale > maxScale {
		scale = maxScale
	}
	cs.scale = scale
	if cs.n < math.MaxInt32 {
		cs.n++
	}
}

// Fuse classifies, imputes, and filters one raw vector of stream s, an
// index Add returned. values is read during the call and never retained
// or mutated; the fused vector is returned in Result.Values (the Bank's
// scratch).
func (b *Bank) Fuse(s int, values []float64) Result {
	dim := b.lay.dim
	if len(values) > dim {
		values = values[:dim]
	}
	all, coef := b.stream(s)
	st, cls, out := all[:len(values)], b.cls[:len(values)], b.out[:len(values)]
	pn, mn := b.cfg.ProcessNoise, b.cfg.MeasurementNoise
	gate := b.cfg.GateSigmas * b.cfg.GateSigmas
	stuckAt := runVaried + uint64(b.cfg.StuckRun) // the run of a varied counter that reads stuck
	gated, rejected := 0, dim-len(values)

	// One pass: classify every reading against its filter, and fold an
	// accepted one on the spot.
	for i, y := range values {
		cs := &st[i]
		if nonFinite(y) {
			cls[i] = clsMissing
			rejected++
			continue
		}
		bits := math.Float64bits(y)
		switch {
		case cs.run == 0:
			cs.run = 1
		case bits == cs.lastBits:
			if cs.run&runMax != runMax {
				cs.run++
			}
		default:
			cs.run = runVaried | 1
		}
		cs.lastBits = bits
		if uint64(cs.run) >= stuckAt {
			cls[i] = clsStuck
			rejected++
			continue
		}
		p, r := cs.predict(pn, mn)
		rr := r * r
		if int(cs.n) >= b.cfg.Warmup && cs.n > 0 {
			d := y - cs.m
			if s := p + rr; s > 0 && d*d > gate*s {
				cls[i] = clsGated
				gated++
				rejected++
				continue
			}
		}
		// Accepted: cs.fold(p, r, y), inlined and reusing p + q² and r².
		p = capVar(p)
		k := 1.0
		if s := p + rr; s > 0 {
			k = p / s
		}
		m := cs.m + k*(y-cs.m)
		if nonFinite(m) {
			m = y
		}
		cs.m, cs.p = m, capVar(p*(1-k))
		cs.track(y)
		cls[i] = clsAccept
		out[i] = y
	}
	// A short vector's tail reads as missing.
	for i := len(values); i < dim; i++ {
		b.cls[i] = clsMissing
	}

	// Coherent-jump veto: a majority of counters moving out of gate at
	// once is a regime change; trust the stream, and fold the vetoed
	// readings exactly as accepted ones.
	if gated > dim/2 {
		for i, c := range cls {
			if c == clsGated {
				cs := &st[i]
				p, r := cs.predict(pn, mn)
				cs.fold(p, r, values[i])
				cs.track(values[i])
				cls[i] = clsAccept
				out[i] = values[i]
			}
		}
		rejected -= gated
		gated = 0
	}

	// With nothing rejected the confidence sum is dim ones, exactly.
	confSum := float64(dim)
	if rejected > 0 {
		confSum = b.fillRejected(all, coef, values)
	}

	// Learning pass: refresh learned coefficients from samples where
	// every participant was accepted.
	b.learn(coef, values)

	return Result{
		Values:     b.out,
		Confidence: confSum / float64(dim),
		Imputed:    rejected,
		Gated:      gated,
	}
}

// fillRejected runs the deferred half of a sample with rejected
// readings: each one's filter prediction, its emission — imputed from
// the factor graph (and folded) where accepted peers allow, else the
// filter prior — and the inequality clamps. It returns the confidence
// sum, accumulated in counter order.
func (b *Bank) fillRejected(st []counterState, coef, values []float64) float64 {
	pn, mn := b.cfg.ProcessNoise, b.cfg.MeasurementNoise
	confSum := 0.0
	for i, c := range b.cls {
		if c == clsAccept {
			confSum += ConfAccepted
			continue
		}
		cs := &st[i]
		p, r := cs.predict(pn, mn)
		if z, ok := b.impute(i, coef, values); ok {
			cs.fold(p, r, z)
			b.out[i] = z
			confSum += ConfFactor
		} else {
			cs.p = capVar(p)
			z := cs.m
			if z < 0 || nonFinite(z) {
				z = 0
			}
			b.out[i] = z
			confSum += ConfPrior
		}
	}

	// Inequality clamps apply to imputed values only: a reconstructed
	// reading must not violate a physical bound its accepted peer pins.
	for _, fi := range b.lay.clamps {
		fa := b.lay.factors[fi]
		if b.cls[fa.a] != clsAccept && b.cls[fa.b] == clsAccept && b.out[fa.a] > values[fa.b] {
			b.out[fa.a] = values[fa.b]
		}
	}
	return confSum
}

// accepted reports whether counter j was accepted this sample.
func (b *Bank) accepted(j int) bool { return b.cls[j] == clsAccept }

// impute reconstructs counter i from the first factor whose other
// participants were all accepted and whose solution is finite; coef
// holds the stream's learned coefficients.
func (b *Bank) impute(i int, coef, values []float64) (float64, bool) {
	for _, fi := range b.lay.byCounter[i] {
		fa := b.lay.factors[fi]
		z := math.NaN()
		switch fa.kind {
		case kindRatio: // x[a] = K·x[b]/x[c]
			switch {
			case i == fa.a && b.accepted(fa.b) && b.accepted(fa.c):
				z = fa.k * values[fa.b] / values[fa.c]
			case i == fa.b && b.accepted(fa.a) && b.accepted(fa.c):
				z = values[fa.a] * values[fa.c] / fa.k
			case i == fa.c && b.accepted(fa.a) && b.accepted(fa.b):
				z = fa.k * values[fa.b] / values[fa.a]
			}
		case kindProp: // x[a] = K·x[b]
			switch {
			case i == fa.a && b.accepted(fa.b):
				z = fa.k * values[fa.b]
			case i == fa.b && b.accepted(fa.a):
				z = values[fa.a] / fa.k
			}
		case kindLearnedProp: // x[a] = lr·x[b]
			lr := coef[fa.slot]
			if nonFinite(lr) {
				break
			}
			switch {
			case i == fa.a && b.accepted(fa.b):
				z = lr * values[fa.b]
			case i == fa.b && b.accepted(fa.a):
				z = values[fa.a] / lr
			}
		case kindLearnedDiff: // x[a] = x[b] − lr·x[c]
			lr := coef[fa.slot]
			if nonFinite(lr) {
				break
			}
			switch {
			case i == fa.a && b.accepted(fa.b) && b.accepted(fa.c):
				z = values[fa.b] - lr*values[fa.c]
			case i == fa.b && b.accepted(fa.a) && b.accepted(fa.c):
				z = values[fa.a] + lr*values[fa.c]
			case i == fa.c && b.accepted(fa.a) && b.accepted(fa.b):
				z = (values[fa.b] - values[fa.a]) / lr
			}
		case kindShare4: // x[a]+x[a+1]+x[a+2]+x[a+3] = K
			z = fa.k
			ok := true
			for j := fa.a; j < fa.a+4; j++ {
				if j == i {
					continue
				}
				if !b.accepted(j) {
					ok = false
					break
				}
				z -= values[j]
			}
			if !ok {
				z = math.NaN()
			}
		case kindLearnedSum2: // x[a] = lr·(x[b]+x[c])
			lr := coef[fa.slot]
			if nonFinite(lr) {
				break
			}
			switch {
			case i == fa.a && b.accepted(fa.b) && b.accepted(fa.c):
				z = lr * (values[fa.b] + values[fa.c])
			case i == fa.b && b.accepted(fa.a) && b.accepted(fa.c):
				z = values[fa.a]/lr - values[fa.c]
			case i == fa.c && b.accepted(fa.a) && b.accepted(fa.b):
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

// learn refreshes a stream's learned factor coefficients (EMA over
// samples where every participant was accepted); a coefficient that is
// not finite is unlearned and takes the next ratio as it is.
func (b *Bank) learn(coef, values []float64) {
	for j, fi := range b.lay.learned {
		fa := b.lay.factors[fi]
		ratio := math.NaN()
		switch fa.kind {
		case kindLearnedProp:
			if b.accepted(fa.a) && b.accepted(fa.b) {
				ratio = values[fa.a] / values[fa.b]
			}
		case kindLearnedDiff:
			if b.accepted(fa.a) && b.accepted(fa.b) && b.accepted(fa.c) {
				ratio = (values[fa.b] - values[fa.a]) / values[fa.c]
			}
		case kindLearnedSum2:
			if b.accepted(fa.a) && b.accepted(fa.b) && b.accepted(fa.c) {
				ratio = values[fa.a] / (values[fa.b] + values[fa.c])
			}
		}
		if nonFinite(ratio) {
			continue
		}
		if nonFinite(coef[j]) {
			coef[j] = ratio
		} else {
			coef[j] += lrEMA * (ratio - coef[j])
		}
	}
}
