package stats

import (
	"math"
	"sort"
)

// Entropy returns the Shannon entropy (base 2) of a discrete distribution
// given as counts. Zero counts contribute nothing; a zero total yields 0.
func Entropy(counts []int) float64 {
	var total int
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	var h float64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// maxDirectSpan caps the numeric span the dense counting tables below cover
// directly. Discretizer bins and class labels span a handful of values, so
// real inputs never take the rank-compressed layout.
const maxDirectSpan = 1 << 16

// axis lays one discrete variable out for dense counting: value v occupies
// index v-lo when the numeric span is modest, or its rank among the distinct
// values otherwise (table size must not scale with the raw span). Both
// layouts enumerate values in ascending order, so walking a table in index
// order is the same as walking the support in sorted order — floating-point
// sums are not associative, so that order is what keeps results bit-identical
// across runs.
type axis struct {
	lo    int
	width int
	rank  map[int]int // nil when the direct v-lo layout applies
}

func newAxis(xs []int) axis {
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if span := hi - lo; span >= 0 && span < maxDirectSpan {
		return axis{lo: lo, width: span + 1}
	}
	rank := make(map[int]int, len(xs))
	for _, x := range xs {
		rank[x] = 0
	}
	vals := make([]int, 0, len(rank))
	for v := range rank {
		vals = append(vals, v)
	}
	sort.Ints(vals)
	for i, v := range vals {
		rank[v] = i
	}
	return axis{width: len(vals), rank: rank}
}

func (a *axis) index(v int) int {
	if a.rank == nil {
		return v - a.lo
	}
	return a.rank[v]
}

// InformationGain returns IG(C; A) = H(C) - H(C|A) for a discretized
// attribute with values xs (bin indices) and class labels cs. This is the
// relevance measure the paper borrows from information theory for attribute
// selection (§II.B.2).
func InformationGain(xs, cs []int) (float64, error) {
	if len(xs) != len(cs) {
		return 0, ErrLengthMismatch
	}
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	axX, axC := newAxis(xs), newAxis(cs)
	// One pass fills the [value][class] contingency table and the class
	// marginal.
	table := make([]int, axX.width*axC.width)
	classCounts := make([]int, axC.width)
	for i, x := range xs {
		c := axC.index(cs[i])
		table[axX.index(x)*axC.width+c]++
		classCounts[c]++
	}
	hc := Entropy(classCounts)
	var hcGivenA float64
	n := float64(len(xs))
	for v := 0; v < axX.width; v++ {
		row := table[v*axC.width : (v+1)*axC.width]
		nv := 0
		for _, c := range row {
			nv += c
		}
		if nv == 0 {
			continue
		}
		hcGivenA += float64(nv) / n * Entropy(row)
	}
	return hc - hcGivenA, nil
}

// ConditionalMutualInformation returns I(X; Y | Z) in bits for discrete
// variables. It is the edge weight of the Chow-Liu tree in TAN structure
// learning, with Z the class variable.
func ConditionalMutualInformation(xs, ys, zs []int) (float64, error) {
	if len(xs) != len(ys) || len(xs) != len(zs) {
		return 0, ErrLengthMismatch
	}
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	axX, axY, axZ := newAxis(xs), newAxis(ys), newAxis(zs)
	wY, wZ := axY.width, axZ.width
	jointXYZ := make([]int, axX.width*wY*wZ)
	jointXZ := make([]int, axX.width*wZ)
	jointYZ := make([]int, wY*wZ)
	pz := make([]int, wZ)
	for i := range xs {
		x, y, z := axX.index(xs[i]), axY.index(ys[i]), axZ.index(zs[i])
		jointXYZ[(x*wY+y)*wZ+z]++
		jointXZ[x*wZ+z]++
		jointYZ[y*wZ+z]++
		pz[z]++
	}
	n := float64(len(xs))
	var cmi float64
	for x := 0; x < axX.width; x++ {
		for y := 0; y < wY; y++ {
			base := (x*wY + y) * wZ
			for z := 0; z < wZ; z++ {
				cnt := jointXYZ[base+z]
				if cnt == 0 {
					continue
				}
				pxyz := float64(cnt) / n
				num := pxyz * (float64(pz[z]) / n)
				den := (float64(jointXZ[x*wZ+z]) / n) * (float64(jointYZ[y*wZ+z]) / n)
				cmi += pxyz * math.Log2(num/den)
			}
		}
	}
	if cmi < 0 {
		cmi = 0
	}
	return cmi, nil
}
