package bayes

import (
	"math"
	"math/rand"
	"testing"

	"hpcap/internal/ml"
	"hpcap/internal/ml/mltest"
	"hpcap/internal/stats"
)

// refNaive and refTAN are frozen copies of the interpreted learners: nested
// per-attribute tables walked by a Predict that takes logs per call. Their
// Fit and Predict are kept verbatim as the reference the flat scoring
// tables are held to, and are never regenerated.
type refNaive struct {
	prior [2]float64
	mean  [][2]float64
	std   [][2]float64
}

func (n *refNaive) Fit(d *ml.Dataset) error {
	if d.Len() == 0 {
		return ml.ErrNoData
	}
	n0, n1 := d.ClassCounts()
	if n0 == 0 || n1 == 0 {
		return ml.ErrOneClass
	}
	total := float64(d.Len())
	// Laplace-smoothed priors.
	n.prior[0] = (float64(n0) + 1) / (total + 2)
	n.prior[1] = (float64(n1) + 1) / (total + 2)

	p := d.NumAttrs()
	n.mean = make([][2]float64, p)
	n.std = make([][2]float64, p)
	col := make([]float64, d.Len())
	var vals [2][]float64
	vals[0] = make([]float64, 0, n0)
	vals[1] = make([]float64, 0, n1)
	for j := 0; j < p; j++ {
		col = d.ColumnTo(col, j)
		vals[0], vals[1] = vals[0][:0], vals[1][:0]
		for i, v := range col {
			c := d.Y[i]
			vals[c] = append(vals[c], v)
		}
		for c := 0; c < 2; c++ {
			n.mean[j][c] = stats.Mean(vals[c])
			sd := stats.StdDev(vals[c])
			if sd < 1e-9 {
				sd = 1e-9
			}
			n.std[j][c] = sd
		}
	}
	return nil
}

func (n *refNaive) Predict(x []float64) int {
	if n.mean == nil {
		return 0
	}
	var logp [2]float64
	for c := 0; c < 2; c++ {
		logp[c] = math.Log(n.prior[c])
		for j, v := range x {
			if j >= len(n.mean) {
				break
			}
			pdf := stats.GaussianPDF(v, n.mean[j][c], n.std[j][c])
			if pdf < 1e-300 {
				pdf = 1e-300
			}
			logp[c] += math.Log(pdf)
		}
	}
	if logp[1] > logp[0] {
		return 1
	}
	return 0
}

type refTAN struct {
	Bins int

	disc    []*stats.Discretizer
	parent  []int
	prior   [2]float64
	rootCPT [2][]float64
	cpt     [][2][][]float64
	root    int
}

func (t *refTAN) Fit(d *ml.Dataset) error {
	if d.Len() == 0 {
		return ml.ErrNoData
	}
	n0, n1 := d.ClassCounts()
	if n0 == 0 || n1 == 0 {
		return ml.ErrOneClass
	}
	bins := t.Bins
	if bins <= 0 {
		bins = DefaultBins
	}
	p := d.NumAttrs()

	t.disc = make([]*stats.Discretizer, p)
	discX := make([][]int, p)
	col := make([]float64, d.Len())
	for j := 0; j < p; j++ {
		col = d.ColumnTo(col, j)
		disc, err := stats.NewEqualFrequency(col, bins)
		if err != nil {
			return err
		}
		t.disc[j] = disc
		discX[j] = disc.BinAll(col)
	}

	total := float64(d.Len())
	t.prior[0] = (float64(n0) + 1) / (total + 2)
	t.prior[1] = (float64(n1) + 1) / (total + 2)

	t.root = 0
	t.parent = maxSpanningTree(p, func(i, j int) float64 {
		cmi, err := stats.ConditionalMutualInformation(discX[i], discX[j], d.Y)
		if err != nil {
			return 0
		}
		return cmi
	})

	t.cpt = make([][2][][]float64, p)
	for c := 0; c < 2; c++ {
		t.rootCPT[c] = make([]float64, t.disc[t.root].Bins())
	}
	for j := 0; j < p; j++ {
		if j == t.root {
			continue
		}
		pb := t.disc[t.parent[j]].Bins()
		jb := t.disc[j].Bins()
		for c := 0; c < 2; c++ {
			t.cpt[j][c] = make([][]float64, pb)
			for k := range t.cpt[j][c] {
				t.cpt[j][c][k] = make([]float64, jb)
			}
		}
	}

	for i := range d.Y {
		c := d.Y[i]
		t.rootCPT[c][discX[t.root][i]]++
		for j := 0; j < p; j++ {
			if j == t.root {
				continue
			}
			pbin := discX[t.parent[j]][i]
			t.cpt[j][c][pbin][discX[j][i]]++
		}
	}
	for c := 0; c < 2; c++ {
		refNormalizeLaplace(t.rootCPT[c])
		for j := 0; j < p; j++ {
			if j == t.root {
				continue
			}
			for k := range t.cpt[j][c] {
				refNormalizeLaplace(t.cpt[j][c][k])
			}
		}
	}
	return nil
}

func refNormalizeLaplace(counts []float64) {
	var total float64
	for _, v := range counts {
		total += v
	}
	denom := total + float64(len(counts))
	for i := range counts {
		counts[i] = (counts[i] + 1) / denom
	}
}

func (t *refTAN) Parents() []int {
	if t.parent == nil {
		return nil
	}
	out := make([]int, len(t.parent))
	copy(out, t.parent)
	out[t.root] = -1
	return out
}

func (t *refTAN) Predict(x []float64) int {
	if t.disc == nil {
		return 0
	}
	p := len(t.disc)
	bins := make([]int, p)
	for j := 0; j < p && j < len(x); j++ {
		bins[j] = t.disc[j].Bin(x[j])
	}
	var logp [2]float64
	for c := 0; c < 2; c++ {
		logp[c] = math.Log(t.prior[c]) + math.Log(t.rootCPT[c][bins[t.root]])
		for j := 0; j < p; j++ {
			if j == t.root {
				continue
			}
			logp[c] += math.Log(t.cpt[j][c][bins[t.parent[j]]][bins[j]])
		}
	}
	if logp[1] > logp[0] {
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
// pathological values a serving stream can deliver: NaN, ±Inf, ±1e9,
// and vectors one short of and one past the trained width.
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

// refModel is the interpreted classifier contract the references keep.
type refModel interface {
	Fit(d *ml.Dataset) error
	Predict(x []float64) int
}

// pair is one learner's reference and flat copies fitted side by side.
type pair struct {
	name string
	ref  refModel
	flat ml.Classifier
}

func refPairs() []pair {
	return []pair{
		{"Naive", &refNaive{}, NewNaive()},
		{"TAN", &refTAN{}, NewTAN()},
		{"TAN/3", &refTAN{Bins: 3}, &TAN{Bins: 3}},
	}
}

// checkPair fits both copies of one learner on d and requires the same
// fit outcome and the same class on every probe.
func checkPair(t testing.TB, p pair, d *ml.Dataset, rng *rand.Rand) {
	t.Helper()
	rerr, ferr := p.ref.Fit(d), p.flat.Fit(d)
	if (rerr == nil) != (ferr == nil) {
		t.Fatalf("%s: reference fit err %v, flat fit err %v", p.name, rerr, ferr)
	}
	if rt, ok := p.ref.(*refTAN); ok && rerr == nil {
		want, got := rt.Parents(), p.flat.(*TAN).Parents()
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("%s: parents %v, want %v", p.name, got, want)
			}
		}
	}
	var s ml.Scratch
	for k, x := range probes(d, rng) {
		if want, got := p.ref.Predict(x), predict(p.flat, x, &s); want != got {
			t.Fatalf("%s: probe %d %v: flat %d, reference %d", p.name, k, x, got, want)
		}
	}
}

// predict is the flat copy's prediction.
func predict(c ml.Classifier, x []float64, s *ml.Scratch) int { return c.Predict(x, s) }

// TestPredictMatchesReference holds the flat scoring tables to the frozen
// interpreted learners on the shared synthetic sets.
func TestPredictMatchesReference(t *testing.T) {
	for _, p := range refPairs() {
		rng := rand.New(rand.NewSource(3))
		for _, d := range refSets(1) {
			checkPair(t, p, d, rng)
		}
		if want, got := p.ref.Predict([]float64{1}), predict(p.flat, []float64{1}, &ml.Scratch{}); want != got {
			t.Fatalf("%s unfitted: flat %d, reference %d", p.name, got, want)
		}
	}
}

// FuzzPredictMatchesReference is the same differential over fuzzed
// training seeds and probe values.
func FuzzPredictMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), 0.5, math.NaN())
	f.Add(int64(7), uint8(1), math.Inf(1), 1e9)
	f.Add(int64(-3), uint8(5), -1e300, 4.9e-324)
	f.Fuzz(func(t *testing.T, seed int64, which uint8, a, b float64) {
		sets := refSets(seed)
		d := sets[int(which)%len(sets)]
		p := refPairs()[int(which/4)%len(refPairs())]
		rng := rand.New(rand.NewSource(seed))
		checkPair(t, p, d, rng)
		var s ml.Scratch
		for i := 0; i < d.Len(); i++ {
			x := append([]float64(nil), d.Row(i)...)
			x[rng.Intn(len(x))] = a
			x[rng.Intn(len(x))] = b
			if want, got := p.ref.Predict(x), predict(p.flat, x, &s); want != got {
				t.Fatalf("%s: %v: flat %d, reference %d", p.name, x, got, want)
			}
		}
	})
}
