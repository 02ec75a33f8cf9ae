package stats

import (
	"fmt"
	"sort"
)

// Discretizer maps a continuous value to one of a fixed number of bins using
// cut points learned from training data. The Bayesian learners (Naive Bayes
// in discrete mode and TAN) and the information-gain attribute ranker all
// operate on discretized attributes, mirroring WEKA's supervised pipeline
// used by the paper.
type Discretizer struct {
	// Cuts holds the ascending bin boundaries. A value v falls in bin i
	// where i is the number of cuts strictly less than or equal to v.
	// len(Cuts)+1 bins exist.
	Cuts []float64
}

// NewEqualFrequency learns an equal-frequency discretizer with at most bins
// bins from the sample xs. Duplicate cut points (from repeated values) are
// collapsed, so the effective number of bins may be smaller. bins must be at
// least 2.
func NewEqualFrequency(xs []float64, bins int) (*Discretizer, error) {
	if bins < 2 {
		return nil, fmt.Errorf("stats: need at least 2 bins, got %d", bins)
	}
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)

	cuts := make([]float64, 0, bins-1)
	for b := 1; b < bins; b++ {
		idx := b * len(sorted) / bins
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		cut := sorted[idx]
		if len(cuts) == 0 || cut > cuts[len(cuts)-1] {
			cuts = append(cuts, cut)
		}
	}
	return &Discretizer{Cuts: cuts}, nil
}

// Bins returns the number of bins this discretizer produces.
func (d *Discretizer) Bins() int { return len(d.Cuts) + 1 }

// Bin returns the bin index for v, in [0, Bins()).
func (d *Discretizer) Bin(v float64) int {
	// Binary search for the first cut greater than v.
	lo, hi := 0, len(d.Cuts)
	for lo < hi {
		mid := (lo + hi) / 2
		if d.Cuts[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// BinAll discretizes each value of xs.
func (d *Discretizer) BinAll(xs []float64) []int {
	return d.BinTo(make([]int, len(xs)), xs)
}

// BinTo discretizes each value of xs into dst (grown as needed) and
// returns it, letting hot loops reuse one bin buffer across columns.
func (d *Discretizer) BinTo(dst []int, xs []float64) []int {
	if cap(dst) < len(xs) {
		dst = make([]int, len(xs))
	}
	dst = dst[:len(xs)]
	for i, x := range xs {
		dst[i] = d.Bin(x)
	}
	return dst
}
