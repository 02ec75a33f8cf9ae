package svm

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"hpcap/internal/ml"
	"hpcap/internal/ml/mltest"
)

// refClassifier is a frozen copy of the interpreted SVM: support vectors
// kept as rows with their alphas and labels, and a Decision that
// standardizes into a fresh slice per call. Its Fit and Predict are kept
// verbatim as the reference the flat kernel is held to, and are never
// regenerated.
type refClassifier struct {
	C         float64
	Gamma     float64
	Tol       float64
	MaxPasses int
	Seed      int64

	scaler *ml.Scaler
	x      [][]float64
	y      []float64 // ±1
	alpha  []float64
	b      float64
	gamma  float64
}

func (c *refClassifier) Fit(d *ml.Dataset) error {
	if d.Len() == 0 {
		return ml.ErrNoData
	}
	n0, n1 := d.ClassCounts()
	if n0 == 0 || n1 == 0 {
		return ml.ErrOneClass
	}
	cost := c.C
	if cost <= 0 {
		cost = 1
	}
	tol := c.Tol
	if tol <= 0 {
		tol = 1e-3
	}
	maxPasses := c.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 8
	}
	c.gamma = c.Gamma
	if c.gamma <= 0 {
		c.gamma = 1 / float64(d.NumAttrs())
	}

	c.scaler = ml.FitScaler(d)
	c.x = c.scaler.ApplyAll(d)
	n := d.Len()
	c.y = make([]float64, n)
	for i, label := range d.Y {
		if label == 1 {
			c.y[i] = 1
		} else {
			c.y[i] = -1
		}
	}
	c.alpha = make([]float64, n)
	c.b = 0

	kbuf := kernelPool.Get().(*[]float64)
	k := *kbuf
	if cap(k) < n*n {
		k = make([]float64, n*n)
	}
	k = k[:n*n]
	for i := 0; i < n; i++ {
		k[i*n+i] = 1 // exp(−γ·0)
		for j := i + 1; j < n; j++ {
			v := c.rbf(c.x[i], c.x[j])
			k[i*n+j] = v
			k[j*n+i] = v
		}
	}

	active := make([]int, 0, n)
	setAlpha := func(idx int, v float64) {
		was := c.alpha[idx] > 0
		c.alpha[idx] = v
		if now := v > 0; now != was {
			pos := sort.SearchInts(active, idx)
			if now {
				active = append(active, 0)
				copy(active[pos+1:], active[pos:])
				active[pos] = idx
			} else {
				active = append(active[:pos], active[pos+1:]...)
			}
		}
	}

	fOut := func(i int) float64 {
		s := c.b
		ki := k[i*n : i*n+n]
		for _, j := range active {
			s += c.alpha[j] * c.y[j] * ki[j]
		}
		return s
	}

	rng := rand.New(rand.NewSource(c.Seed + 1))
	passes := 0
	for passes < maxPasses {
		changed := 0
		for i := 0; i < n; i++ {
			ei := fOut(i) - c.y[i]
			if (c.y[i]*ei < -tol && c.alpha[i] < cost) ||
				(c.y[i]*ei > tol && c.alpha[i] > 0) {
				j := rng.Intn(n - 1)
				if j >= i {
					j++
				}
				ej := fOut(j) - c.y[j]

				ai, aj := c.alpha[i], c.alpha[j]
				var lo, hi float64
				if c.y[i] != c.y[j] {
					lo = math.Max(0, aj-ai)
					hi = math.Min(cost, cost+aj-ai)
				} else {
					lo = math.Max(0, ai+aj-cost)
					hi = math.Min(cost, ai+aj)
				}
				if lo == hi {
					continue
				}
				kii, kjj, kij := k[i*n+i], k[j*n+j], k[i*n+j]
				eta := 2*kij - kii - kjj
				if eta >= 0 {
					continue
				}
				ajNew := aj - c.y[j]*(ei-ej)/eta
				if ajNew > hi {
					ajNew = hi
				} else if ajNew < lo {
					ajNew = lo
				}
				if math.Abs(ajNew-aj) < 1e-5 {
					continue
				}
				aiNew := ai + c.y[i]*c.y[j]*(aj-ajNew)

				b1 := c.b - ei - c.y[i]*(aiNew-ai)*kii - c.y[j]*(ajNew-aj)*kij
				b2 := c.b - ej - c.y[i]*(aiNew-ai)*kij - c.y[j]*(ajNew-aj)*kjj
				switch {
				case aiNew > 0 && aiNew < cost:
					c.b = b1
				case ajNew > 0 && ajNew < cost:
					c.b = b2
				default:
					c.b = (b1 + b2) / 2
				}
				setAlpha(i, aiNew)
				setAlpha(j, ajNew)
				changed++
			}
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}

	*kbuf = k
	kernelPool.Put(kbuf)

	var sx [][]float64
	var sy, sa []float64
	for i := 0; i < n; i++ {
		if c.alpha[i] > 1e-9 {
			sx = append(sx, c.x[i])
			sy = append(sy, c.y[i])
			sa = append(sa, c.alpha[i])
		}
	}
	c.x, c.y, c.alpha = sx, sy, sa
	return nil
}

func (c *refClassifier) Decision(x []float64) float64 {
	if c.scaler == nil {
		return 0
	}
	z := c.scaler.Apply(x)
	s := c.b
	for i := range c.alpha {
		s += c.alpha[i] * c.y[i] * c.rbf(c.x[i], z)
	}
	return s
}

func (c *refClassifier) Predict(x []float64) int {
	if c.Decision(x) >= 0 {
		return 1
	}
	return 0
}

func (c *refClassifier) Alphas() []float64 {
	out := make([]float64, len(c.alpha))
	copy(out, c.alpha)
	return out
}

func (c *refClassifier) rbf(a, b []float64) float64 {
	var ss float64
	for i := range a {
		d := a[i] - b[i]
		ss += d * d
	}
	return math.Exp(-c.gamma * ss)
}

// refSets are the training sets the differential fits both copies on.
func refSets(seed int64) []*ml.Dataset {
	return []*ml.Dataset{
		mltest.LinearlySeparable(100, 0.3, seed),
		mltest.XOR(120, 0.08, seed+1),
		mltest.NoisyGaussians(120, 4, 2, 2, seed+2),
		mltest.NoisyGaussians(150, 8, 4, 1.2, seed+3),
	}
}

// probes returns every training row plus perturbed copies carrying the
// pathological values a serving stream can deliver: NaN, ±Inf, ±1e9, and
// a vector one past the trained width. (Both copies index every trained
// attribute, so neither accepts a short vector.)
func probes(d *ml.Dataset, rng *rand.Rand) [][]float64 {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e9, -1e9, 0}
	var out [][]float64
	for i := 0; i < d.Len(); i++ {
		row := append([]float64(nil), d.Row(i)...)
		out = append(out, row)
		bad := append([]float64(nil), row...)
		bad[rng.Intn(len(bad))] = special[rng.Intn(len(special))]
		out = append(out, bad, append(append([]float64(nil), row...), rng.NormFloat64()))
	}
	return out
}

// refPairs returns one learner's reference and flat copies per
// hyperparameter row, unfitted.
func refPairs() [][2]any {
	return [][2]any{
		{&refClassifier{}, New()},
		{&refClassifier{Seed: 7}, &Classifier{Seed: 7}},
		{&refClassifier{C: 10, Gamma: 0.5, Tol: 1e-4, MaxPasses: 5},
			&Classifier{C: 10, Gamma: 0.5, Tol: 1e-4, MaxPasses: 5}},
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkPair fits both copies on d and requires the same fit outcome, the
// same alphas, and on every probe the bit-identical decision value.
func checkPair(t testing.TB, ref *refClassifier, flat *Classifier, d *ml.Dataset, xs [][]float64) {
	t.Helper()
	rerr, ferr := ref.Fit(d), flat.Fit(d)
	if (rerr == nil) != (ferr == nil) {
		t.Fatalf("reference fit err %v, flat fit err %v", rerr, ferr)
	}
	want, got := ref.Alphas(), flat.Alphas()
	if len(want) != len(got) {
		t.Fatalf("%d support vectors, reference %d", len(got), len(want))
	}
	for i := range want {
		if !sameBits(want[i], got[i]) {
			t.Fatalf("alpha[%d] = %v, reference %v", i, got[i], want[i])
		}
	}
	var s ml.Scratch
	for k, x := range xs {
		wd, gd := ref.Decision(x), decision(flat, x, &s)
		if !sameBits(wd, gd) {
			t.Fatalf("probe %d %v: decision %v, reference %v", k, x, gd, wd)
		}
		if w, g := ref.Predict(x), predict(flat, x, &s); w != g {
			t.Fatalf("probe %d %v: flat %d, reference %d", k, x, g, w)
		}
	}
}

// decision and predict are the flat copy's signed value and class.
func decision(c *Classifier, x []float64, s *ml.Scratch) float64 { return c.Decision(x, s) }

func predict(c *Classifier, x []float64, s *ml.Scratch) int { return c.Predict(x, s) }

// TestPredictMatchesReference holds the flat kernel to the frozen
// interpreted SVM on the shared synthetic sets.
func TestPredictMatchesReference(t *testing.T) {
	for _, p := range refPairs() {
		ref, flat := p[0].(*refClassifier), p[1].(*Classifier)
		if w, g := ref.Predict([]float64{1, 2}), predict(flat, []float64{1, 2}, &ml.Scratch{}); w != g {
			t.Fatalf("unfitted: flat %d, reference %d", g, w)
		}
		rng := rand.New(rand.NewSource(3))
		for _, d := range refSets(1) {
			checkPair(t, ref, flat, d, probes(d, rng))
		}
	}
}

// FuzzPredictMatchesReference is the same differential over fuzzed
// training seeds and probe values.
func FuzzPredictMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), 0.5, math.NaN())
	f.Add(int64(7), uint8(1), math.Inf(1), 1e9)
	f.Add(int64(-3), uint8(6), -1e300, 4.9e-324)
	f.Fuzz(func(t *testing.T, seed int64, which uint8, a, b float64) {
		sets := refSets(seed)
		d := sets[int(which)%len(sets)]
		p := refPairs()[int(which/4)%len(refPairs())]
		rng := rand.New(rand.NewSource(seed))
		xs := probes(d, rng)
		for i := 0; i < d.Len(); i++ {
			x := append([]float64(nil), d.Row(i)...)
			x[rng.Intn(len(x))] = a
			x[rng.Intn(len(x))] = b
			xs = append(xs, x)
		}
		checkPair(t, p[0].(*refClassifier), p[1].(*Classifier), d, xs)
	})
}
