package linreg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hpcap/internal/ml"
	"hpcap/internal/ml/mltest"
)

// refClassifier is a frozen copy of the interpreted linear model: a Score
// that standardizes into a fresh slice per call. Its Fit and Predict are
// kept verbatim as the reference the flat kernel is held to, and are never
// regenerated.
type refClassifier struct {
	Lambda float64

	scaler  *ml.Scaler
	weights []float64 // intercept at index 0
}

func (c *refClassifier) Fit(d *ml.Dataset) error {
	if d.Len() == 0 {
		return ml.ErrNoData
	}
	n0, n1 := d.ClassCounts()
	if n0 == 0 || n1 == 0 {
		return ml.ErrOneClass
	}
	lambda := c.Lambda
	if lambda <= 0 {
		lambda = 1e-6
	}
	c.scaler = ml.FitScaler(d)
	rows := c.scaler.ApplyAll(d)

	p := d.NumAttrs() + 1 // intercept
	a := make([][]float64, p)
	for i := range a {
		a[i] = make([]float64, p)
	}
	b := make([]float64, p)
	xi := make([]float64, p)
	xi[0] = 1
	for r, row := range rows {
		y := float64(d.Y[r])
		copy(xi[1:], row)
		for i := 0; i < p; i++ {
			b[i] += xi[i] * y
			for j := 0; j < p; j++ {
				a[i][j] += xi[i] * xi[j]
			}
		}
	}
	for i := 1; i < p; i++ { // do not regularize the intercept
		a[i][i] += lambda * float64(d.Len())
	}
	w, err := solve(a, b)
	if err != nil {
		return fmt.Errorf("linreg: %w", err)
	}
	c.weights = w
	return nil
}

func (c *refClassifier) Score(x []float64) float64 {
	if c.weights == nil {
		return 0
	}
	z := c.scaler.Apply(x)
	s := c.weights[0]
	for j, v := range z {
		if j+1 >= len(c.weights) {
			break
		}
		s += c.weights[j+1] * v
	}
	return s
}

func (c *refClassifier) Predict(x []float64) int {
	if c.Score(x) >= 0.5 {
		return 1
	}
	return 0
}

// refSets are the training sets the differential fits both copies on.
func refSets(seed int64) []*ml.Dataset {
	return []*ml.Dataset{
		mltest.LinearlySeparable(120, 0.3, seed),
		mltest.XOR(160, 0.08, seed+1),
		mltest.NoisyGaussians(150, 6, 2, 2, seed+2),
		mltest.NoisyGaussians(200, 12, 4, 1.0, seed+3),
	}
}

// probes returns every training row plus perturbed copies carrying the
// pathological values a serving stream can deliver: NaN, ±Inf, ±1e9, and
// vectors one short of and one past the trained width.
func probes(d *ml.Dataset, rng *rand.Rand) [][]float64 {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e9, -1e9, 0}
	var out [][]float64
	for i := 0; i < d.Len(); i++ {
		row := append([]float64(nil), d.Row(i)...)
		out = append(out, row)
		bad := append([]float64(nil), row...)
		bad[rng.Intn(len(bad))] = special[rng.Intn(len(special))]
		out = append(out, bad, row[:len(row)-1], append(append([]float64(nil), row...), rng.NormFloat64()))
	}
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkPair fits both copies on d and requires the same fit outcome and,
// on every probe, the bit-identical score and the same class.
func checkPair(t testing.TB, ref *refClassifier, flat *Classifier, d *ml.Dataset, xs [][]float64) {
	t.Helper()
	rerr, ferr := ref.Fit(d), flat.Fit(d)
	if (rerr == nil) != (ferr == nil) {
		t.Fatalf("reference fit err %v, flat fit err %v", rerr, ferr)
	}
	var s ml.Scratch
	for k, x := range xs {
		if w, g := ref.Score(x), score(flat, x, &s); !sameBits(w, g) {
			t.Fatalf("probe %d %v: score %v, reference %v", k, x, g, w)
		}
		if w, g := ref.Predict(x), predict(flat, x, &s); w != g {
			t.Fatalf("probe %d %v: flat %d, reference %d", k, x, g, w)
		}
	}
}

// score and predict are the flat copy's signed value and class.
func score(c *Classifier, x []float64, s *ml.Scratch) float64 { return c.Score(x, s) }

func predict(c *Classifier, x []float64, s *ml.Scratch) int { return c.Predict(x, s) }

// TestPredictMatchesReference holds the flat kernel to the frozen
// interpreted linear model on the shared synthetic sets.
func TestPredictMatchesReference(t *testing.T) {
	for _, lambda := range []float64{0, 0.5} {
		ref, flat := &refClassifier{Lambda: lambda}, &Classifier{Lambda: lambda}
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
		lambda := []float64{0, 0.5}[int(which/4)%2]
		rng := rand.New(rand.NewSource(seed))
		xs := probes(d, rng)
		for i := 0; i < d.Len(); i++ {
			x := append([]float64(nil), d.Row(i)...)
			x[rng.Intn(len(x))] = a
			x[rng.Intn(len(x))] = b
			xs = append(xs, x)
		}
		checkPair(t, &refClassifier{Lambda: lambda}, &Classifier{Lambda: lambda}, d, xs)
	})
}
