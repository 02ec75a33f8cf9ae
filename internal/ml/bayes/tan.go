package bayes

import (
	"math"

	"hpcap/internal/ml"
	"hpcap/internal/stats"
)

// DefaultBins is the number of equal-frequency discretization bins TAN uses
// per attribute.
const DefaultBins = 5

// TAN is a Tree-Augmented Naive Bayes classifier over discretized
// attributes. The trained model is a set of contiguous log-probability
// tables indexed by binned attribute values: one cut-point arena for
// discretization, one root scoring table folding the class prior into the
// root CPT, and one flat CPT arena addressed by
// (parent bin × child bins + child bin) × 2 + class.
type TAN struct {
	// Bins is the number of discretization bins; zero selects DefaultBins.
	Bins int

	root   int
	parent []int32   // parent attribute index (the root's entry is unused)
	cutOff []int32   // cuts[cutOff[j]:cutOff[j+1]] are attribute j's cuts
	cuts   []float64 // ascending cut-point arena
	jbins  []int32   // bins per attribute (len(cuts)+1)

	rootScore []float64 // [bin*2+c] = log prior[c] + log P(root = bin | c)
	cptOff    []int32   // arena offset per attribute (root unused)
	cpt       []float64 // [(pbin*jb+bin)*2+c] = log P(Aj = bin | c, parent = pbin)
}

// NewTAN returns an untrained TAN classifier with default binning.
func NewTAN() *TAN { return &TAN{} }

// TANLearner returns the ml.Learner for TAN.
func TANLearner() ml.Learner {
	return ml.Learner{Name: "TAN", New: func() ml.Classifier { return NewTAN() }}
}

// Fit learns the Chow-Liu structure and conditional probability tables.
func (t *TAN) Fit(d *ml.Dataset) error {
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

	// Discretize every attribute on the training distribution; each column
	// is gathered once and binned from the same buffer.
	discX := make([][]int, p)
	t.cuts = nil
	t.cutOff = make([]int32, p+1)
	t.jbins = make([]int32, p)
	col := make([]float64, d.Len())
	for j := 0; j < p; j++ {
		col = d.ColumnTo(col, j)
		disc, err := stats.NewEqualFrequency(col, bins)
		if err != nil {
			return err
		}
		discX[j] = disc.BinAll(col)
		t.cuts = append(t.cuts, disc.Cuts...)
		t.cutOff[j+1] = int32(len(t.cuts))
		t.jbins[j] = int32(disc.Bins())
	}

	// Structure: maximum spanning tree over conditional mutual
	// information I(Ai; Aj | C), rooted at attribute 0.
	t.root = 0
	parent := maxSpanningTree(p, func(i, j int) float64 {
		cmi, err := stats.ConditionalMutualInformation(discX[i], discX[j], d.Y)
		if err != nil {
			return 0
		}
		return cmi
	})
	t.parent = make([]int32, p)
	t.cptOff = make([]int32, p)
	size := 0
	for j := 0; j < p; j++ {
		t.parent[j] = int32(parent[j])
		if j != t.root {
			t.cptOff[j] = int32(size)
			size += int(t.jbins[parent[j]]*t.jbins[j]) * 2
		}
	}

	// Count into the tables, then replace each count run with its
	// Laplace-smoothed log probabilities.
	rb := int(t.jbins[t.root])
	t.rootScore = make([]float64, 2*rb)
	t.cpt = make([]float64, size)
	for i, c := range d.Y {
		t.rootScore[discX[t.root][i]*2+c]++
		for j := 0; j < p; j++ {
			if j != t.root {
				t.cpt[t.cell(j, discX[parent[j]][i], discX[j][i])+c]++
			}
		}
	}
	total := float64(d.Len())
	logPrior := [2]float64{
		math.Log((float64(n0) + 1) / (total + 2)),
		math.Log((float64(n1) + 1) / (total + 2)),
	}
	for c := 0; c < 2; c++ {
		logLaplace(t.rootScore[c:], rb)
		for bin := 0; bin < rb; bin++ {
			t.rootScore[bin*2+c] = logPrior[c] + t.rootScore[bin*2+c]
		}
		for j := 0; j < p; j++ {
			if j == t.root {
				continue
			}
			for pbin := 0; pbin < int(t.jbins[parent[j]]); pbin++ {
				logLaplace(t.cpt[t.cell(j, pbin, 0)+c:], int(t.jbins[j]))
			}
		}
	}
	return nil
}

// cell is the arena offset of class 0's entry for attribute j at parent
// bin pbin and own bin bin.
func (t *TAN) cell(j, pbin, bin int) int {
	return int(t.cptOff[j]) + (pbin*int(t.jbins[j])+bin)*2
}

// logLaplace replaces the n counts at even offsets of counts with the
// logs of their Laplace-smoothed probabilities.
func logLaplace(counts []float64, n int) {
	var total float64
	for i := 0; i < n; i++ {
		total += counts[i*2]
	}
	denom := total + float64(n)
	for i := 0; i < n; i++ {
		counts[i*2] = math.Log((counts[i*2] + 1) / denom)
	}
}

// Predict returns the maximum-posterior class; 0 before Fit.
func (t *TAN) Predict(x []float64, s *ml.Scratch) int {
	if t.rootScore == nil {
		return 0
	}
	p := len(t.jbins)
	bins := s.EnsureBins(p)
	for j := 0; j < p; j++ {
		b := 0
		if j < len(x) {
			// Counting the cuts ≤ v over the ascending cut arena yields
			// the same bin as Discretizer.Bin's binary search (both are
			// "first cut greater than v"), branch-predictably for the
			// handful of cuts per attribute.
			v := x[j]
			for _, cut := range t.cuts[t.cutOff[j]:t.cutOff[j+1]] {
				if cut <= v {
					b++
				}
			}
		}
		bins[j] = b
	}
	rb := bins[t.root] * 2
	lp0, lp1 := t.rootScore[rb], t.rootScore[rb+1]
	for j := 0; j < p; j++ {
		if j == t.root {
			continue
		}
		e := t.cell(j, bins[t.parent[j]], bins[j])
		lp0 += t.cpt[e]
		lp1 += t.cpt[e+1]
	}
	if lp1 > lp0 {
		return 1
	}
	return 0
}

// maxSpanningTree runs Prim's algorithm over the complete graph on p nodes
// with the given symmetric edge weight, returning each node's parent in a
// tree rooted at node 0 (parent[0] = 0, ignored by callers).
func maxSpanningTree(p int, weight func(i, j int) float64) []int {
	parent := make([]int, p)
	if p == 0 {
		return parent
	}
	inTree := make([]bool, p)
	best := make([]float64, p)
	bestFrom := make([]int, p)
	for i := range best {
		best[i] = math.Inf(-1)
	}
	inTree[0] = true
	for j := 1; j < p; j++ {
		best[j] = weight(0, j)
		bestFrom[j] = 0
	}
	for added := 1; added < p; added++ {
		pick := -1
		for j := 0; j < p; j++ {
			if !inTree[j] && (pick == -1 || best[j] > best[pick]) {
				pick = j
			}
		}
		if pick == -1 {
			break
		}
		inTree[pick] = true
		parent[pick] = bestFrom[pick]
		for j := 0; j < p; j++ {
			if !inTree[j] {
				if w := weight(pick, j); w > best[j] {
					best[j] = w
					bestFrom[j] = pick
				}
			}
		}
	}
	return parent
}
