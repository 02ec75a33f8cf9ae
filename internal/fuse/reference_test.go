package fuse

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// refFuser is a frozen copy of the two-pass fuser: every reading is
// classified in a first walk and filtered, imputed and emitted in a
// second. Its methods are kept verbatim as the reference the one-pass
// kernel is held to, over its own copy of the unpacked 48-byte filter
// state and a coefficient slot per factor; it shares layout and Config
// with the Bank, and a state comparison reads the Bank's packed state
// through the accessors below.
type refFuser struct {
	cfg   Config
	lay   *layout
	lr    []float64 // learned factor coefficients
	lrSet []bool
	st    []refCounterState
	out   []float64
	cls   []uint8
}

// refCounterState is one scalar filter as the reference keeps it.
type refCounterState struct {
	m, p, scale float64
	lastBits    uint64
	run         int32
	n           int32
	varied      bool
	seen        bool
}

// seen, varied and runLen read the packed run in refCounterState's terms.
func (cs counterState) seen() bool    { return cs.run != 0 }
func (cs counterState) varied() bool  { return cs.run&runVaried != 0 }
func (cs counterState) runLen() int32 { return int32(cs.run & runMax) }

// coef reads stream s's coefficient for factor fi in the reference's
// terms: an unlearned one, or a factor that learns nothing, reads 0.
func (b *Bank) coef(s, fi int) (float64, bool) {
	fa := b.lay.factors[fi]
	if !fa.learned() {
		return 0, false
	}
	_, coef := b.stream(s)
	if c := coef[fa.slot]; !nonFinite(c) {
		return c, true
	}
	return 0, false
}

func newRefFuser(cfg Config, dim int) *refFuser {
	lay := layoutFor(dim)
	return &refFuser{
		cfg:   cfg.withDefaults(),
		lay:   lay,
		lr:    make([]float64, len(lay.factors)),
		lrSet: make([]bool, len(lay.factors)),
		st:    make([]refCounterState, dim),
		out:   make([]float64, dim),
		cls:   make([]uint8, dim),
	}
}

// Reset clears the per-counter filter state (after a stream gap resets
// the site's temporal history, stale levels must not gate the fresh
// stream). Learned factor coefficients are machine constants and
// survive the reset.
func (f *refFuser) Reset() {
	for i := range f.st {
		f.st[i] = refCounterState{}
	}
}

// at returns the i-th raw reading, treating a short vector's missing
// tail as unreadable.
func (f *refFuser) at(values []float64, i int) float64 {
	if i < len(values) {
		return values[i]
	}
	return math.NaN()
}

// Fuse classifies, imputes, and filters one raw vector. values is read
// during the call and never retained or mutated; the fused vector is
// returned in Result.Values (Fuser-owned storage).
func (f *refFuser) Fuse(values []float64) Result {
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
func (f *refFuser) fold(cs *refCounterState, r, z float64) {
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
func (f *refFuser) accepted(j int) bool { return f.cls[j] == clsAccept }

// impute reconstructs counter i from the first factor whose other
// participants were all accepted and whose solution is finite.
func (f *refFuser) impute(i int, values []float64) (float64, bool) {
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
func (f *refFuser) learn(values []float64) {
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

// pairFusers builds a Fuser and its reference twin over one config.
func pairFusers(t testing.TB, cfg Config, dim int) (*Fuser, *refFuser) {
	t.Helper()
	f, err := New(cfg, dim)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f, newRefFuser(cfg, dim)
}

// sameBits reports whether two floats are the same bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkSameStep fails unless the two results and the whole state of
// stream s of b and of ref — every counter filter and every learned
// coefficient — agree bit for bit.
func checkSameStep(t testing.TB, step int, b *Bank, s int, ref *refFuser, got, want Result) {
	t.Helper()
	if len(got.Values) != len(want.Values) {
		t.Fatalf("step %d: %d values, reference %d", step, len(got.Values), len(want.Values))
	}
	for i := range want.Values {
		if !sameBits(got.Values[i], want.Values[i]) {
			t.Fatalf("step %d counter %d: emitted %v, reference %v", step, i, got.Values[i], want.Values[i])
		}
	}
	if !sameBits(got.Confidence, want.Confidence) || got.Imputed != want.Imputed || got.Gated != want.Gated {
		t.Fatalf("step %d: confidence/imputed/gated %v/%d/%d, reference %v/%d/%d",
			step, got.Confidence, got.Imputed, got.Gated, want.Confidence, want.Imputed, want.Gated)
	}
	checkState(t, step, b, s, ref)
}

// checkState fails unless stream s of b and ref hold the same state:
// every counter filter and every learned coefficient, bit for bit.
func checkState(t testing.TB, step int, b *Bank, s int, ref *refFuser) {
	t.Helper()
	st, _ := b.stream(s)
	for i := range ref.st {
		g, w := st[i], ref.st[i]
		if !sameBits(g.m, w.m) || !sameBits(g.p, w.p) || !sameBits(g.scale, w.scale) ||
			g.lastBits != w.lastBits || g.runLen() != w.run || g.n != w.n || g.varied() != w.varied || g.seen() != w.seen {
			t.Fatalf("step %d stream %d counter %d: state %+v, reference %+v", step, s, i, g, w)
		}
	}
	for fi := range ref.lr {
		if lr, set := b.coef(s, fi); !sameBits(lr, ref.lr[fi]) || set != ref.lrSet[fi] {
			t.Fatalf("step %d stream %d factor %d: lr %v/%v, reference %v/%v", step, s, fi, lr, set, ref.lr[fi], ref.lrSet[fi])
		}
	}
}

// faultyStream draws one seeded stream of steps vectors over dim
// counters: levels random-walking over many magnitudes (some counters
// constant from birth, some negative), with NaN and ±Inf readings,
// stuck repeats, out-of-gate spikes, coherent ×50 jumps of the whole
// vector, zeros, short vectors, and vectors longer than dim. A nil
// vector marks a Reset before the next step.
func faultyStream(rng *rand.Rand, dim, steps int) [][]float64 {
	level := make([]float64, dim)
	constant := make([]bool, dim)
	for i := range level {
		level[i] = math.Pow(10, rng.Float64()*10-2)
		if rng.Intn(8) == 0 {
			level[i] = -level[i]
		}
		constant[i] = rng.Intn(10) == 0
	}
	stuckLeft := make([]int, dim)
	prev := make([]float64, dim)
	var out [][]float64
	for t := 0; t < steps; t++ {
		if rng.Intn(60) == 0 {
			out = append(out, nil)
		}
		for i := range level {
			if !constant[i] {
				level[i] *= 1 + 0.04*rng.NormFloat64()
			}
		}
		jump := rng.Intn(25) == 0
		zeros := rng.Intn(40) == 0
		vec := make([]float64, dim, dim+3)
		for i := range vec {
			y := level[i]
			switch u := rng.Intn(100); {
			case stuckLeft[i] > 0:
				stuckLeft[i]--
				y = prev[i]
			case u < 2:
				y = math.NaN()
			case u < 3:
				y = math.Inf(1 - 2*rng.Intn(2))
			case u < 5:
				stuckLeft[i] = 1 + rng.Intn(6)
				y = prev[i]
			case u < 7:
				y *= math.Pow(10, 1+3*rng.Float64())
			case u < 8:
				y = 0
			case u < 9:
				y = []float64{1e308, -1e308, 5e-324, -0.0}[rng.Intn(4)]
			}
			if jump {
				y *= 50
			}
			if zeros {
				y = 0
			}
			vec[i] = y
		}
		copy(prev, vec)
		switch rng.Intn(30) {
		case 0:
			vec = vec[:rng.Intn(dim)]
		case 1:
			vec = append(vec, 1, math.NaN(), -7)
		}
		out = append(out, vec)
	}
	return out
}

// TestFuseMatchesReference holds the one-pass kernel to the frozen
// two-pass fuser: over seeded fault-laden streams at every layout
// dimension, under the default config and under an aggressive one
// (gate armed from the first reading, stuck after two repeats, narrow
// gates), every emitted bit, every filter state and every learned
// coefficient must match after every step.
func TestFuseMatchesReference(t *testing.T) {
	const seeds, steps = 30, 200
	for _, dim := range []int{19, 64, 83, 7, 1} {
		for _, cfg := range []Config{
			{},
			{Warmup: -1, StuckRun: 2, GateSigmas: 1},
			{Warmup: -1, StuckRun: 2, GateSigmas: 2},
			{Warmup: -1, StuckRun: 2, GateSigmas: 3},
			{Warmup: -1, StuckRun: 2, GateSigmas: 4},
		} {
			for seed := int64(1); seed <= seeds; seed++ {
				f, ref := pairFusers(t, cfg, dim)
				rng := rand.New(rand.NewSource(seed*1000 + int64(dim)))
				for step, vec := range faultyStream(rng, dim, steps) {
					if vec == nil {
						f.Reset()
						ref.Reset()
						continue
					}
					got := f.Fuse(vec)
					checkSameStep(t, step, f.b, 0, ref, got, ref.Fuse(vec))
				}
			}
		}
	}
}

// FuzzFuseMatchesReference feeds arbitrary byte streams, reinterpreted
// as raw float64 bits like FuzzFuseIngest, to a Fuser and its frozen
// two-pass reference and requires them to agree bit for bit after every
// step. mode picks the config (bit 0: gate armed at once, stuck after
// two repeats, gate width 1–4 from bits 1–2), short vectors (bit 3) and
// Resets (bit 4).
func FuzzFuseMatchesReference(f *testing.F) {
	nan := math.Float64bits(math.NaN())
	inf := math.Float64bits(math.Inf(1))
	seed := make([]byte, 0, 8*8)
	for _, b := range []uint64{nan, inf, 0, 0, math.Float64bits(1e308), math.Float64bits(-1e308), nan, 42} {
		seed = binary.LittleEndian.AppendUint64(seed, b)
	}
	f.Add(uint8(19), uint8(0), seed)
	f.Add(uint8(64), uint8(1), seed)
	f.Add(uint8(83), uint8(31), []byte{})
	f.Add(uint8(1), uint8(9), []byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, dimByte, mode uint8, data []byte) {
		dim := int(dimByte%96) + 1
		var cfg Config
		if mode&1 != 0 {
			cfg = Config{Warmup: -1, StuckRun: 2, GateSigmas: float64(1 + mode>>1&3)}
		}
		fu, ref := pairFusers(t, cfg, dim)

		vals := make([]float64, 0, len(data)/8)
		for i := 0; i+8 <= len(data); i += 8 {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data[i:])))
		}
		vec := make([]float64, dim)
		step := 0
		for off := 0; off == 0 || off+dim <= len(vals); off += dim {
			for i := range vec {
				if off+i < len(vals) {
					vec[i] = vals[off+i]
				} else {
					vec[i] = 0
				}
			}
			in := vec
			if mode&8 != 0 && step%3 == 2 {
				in = vec[:dim/2]
			}
			if mode&16 != 0 && step%7 == 6 {
				fu.Reset()
				ref.Reset()
			}
			checkSameStep(t, step, fu.b, 0, ref, fu.Fuse(in), ref.Fuse(in))
			step++
		}
	})
}
