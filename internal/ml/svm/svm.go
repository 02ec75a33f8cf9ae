// Package svm implements the support-vector-machine synopsis builder using
// sequential minimal optimization (SMO) with an RBF kernel on standardized
// attributes. In the paper's measurements the SVM attains accuracy
// comparable to TAN but is by far the most expensive to train (1710 ms vs
// 50 ms for TAN), which this from-scratch implementation reproduces in
// shape.
package svm

import (
	"math"
	"math/rand"
	"sort"
	"sync"

	"hpcap/internal/ml"
)

// kernelPool recycles flat kernel-matrix buffers across fits. The folds of
// one cross validation are all nearly the same size, so after the first
// fold the same n² buffer serves the entire run (and the next candidate's)
// without reallocating.
var kernelPool = sync.Pool{New: func() any { return new([]float64) }}

// Classifier is a binary soft-margin SVM trained with SMO.
type Classifier struct {
	// C is the soft-margin penalty; zero selects 1.
	C float64
	// Gamma is the RBF width; zero selects 1/numAttributes.
	Gamma float64
	// Tol is the KKT violation tolerance; zero selects 1e-3.
	Tol float64
	// MaxPasses bounds the number of full passes without updates; zero
	// selects 8.
	MaxPasses int
	// Seed drives the deterministic second-index choice.
	Seed int64

	// The trained model is a flat dot-product kernel: the standardization
	// parameters, a dense support-vector arena ([i*d+k], one
	// cache-friendly row per SV) and the kernel coefficients alpha·y.
	mean  []float64
	std   []float64
	sv    []float64 // standardized support vectors, [i*d+k]
	coef  []float64 // alpha[i]*y[i]
	b     float64
	gamma float64
}

// New returns an SVM with default hyperparameters.
func New() *Classifier { return &Classifier{} }

// Learner returns the ml.Learner for the SVM.
func Learner() ml.Learner {
	return ml.Learner{Name: "SVM", New: func() ml.Classifier { return New() }}
}

// Fit trains the SVM with simplified SMO.
func (c *Classifier) Fit(d *ml.Dataset) error {
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
	gamma := c.Gamma
	if gamma <= 0 {
		gamma = 1 / float64(d.NumAttrs())
	}

	scaler := ml.FitScaler(d)
	x := scaler.ApplyAll(d)
	n := d.Len()
	y := make([]float64, n)
	for i, label := range d.Y {
		if label == 1 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	alpha := make([]float64, n)
	b := 0.0

	// Precompute the kernel matrix (flat n×n, pooled across fits).
	// Each entry keeps the subtract-square ‖a−b‖² form: the algebraically
	// equivalent ‖a‖²+‖b‖²−2a·b with cached row norms halves the per-entry
	// cost but perturbs the last ulp, which flips a handful of borderline
	// SMO decisions and breaks the byte-identical determinism goldens.
	// Training sets here are hundreds of instances, so n² stays small.
	kbuf := kernelPool.Get().(*[]float64)
	k := *kbuf
	if cap(k) < n*n {
		k = make([]float64, n*n)
	}
	k = k[:n*n]
	for i := 0; i < n; i++ {
		k[i*n+i] = 1 // exp(−γ·0)
		for j := i + 1; j < n; j++ {
			v := rbf(x[i], x[j], gamma)
			k[i*n+j] = v
			k[j*n+i] = v
		}
	}

	// active lists the indices with alpha > 0 in ascending order, so the
	// SMO objective loop skips dead multipliers while keeping the exact
	// summation order of a full ascending scan.
	active := make([]int, 0, n)
	setAlpha := func(idx int, v float64) {
		was := alpha[idx] > 0
		alpha[idx] = v
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
		s := b
		ki := k[i*n : i*n+n]
		for _, j := range active {
			s += alpha[j] * y[j] * ki[j]
		}
		return s
	}

	rng := rand.New(rand.NewSource(c.Seed + 1))
	passes := 0
	for passes < maxPasses {
		changed := 0
		for i := 0; i < n; i++ {
			ei := fOut(i) - y[i]
			if (y[i]*ei < -tol && alpha[i] < cost) ||
				(y[i]*ei > tol && alpha[i] > 0) {
				j := rng.Intn(n - 1)
				if j >= i {
					j++
				}
				ej := fOut(j) - y[j]

				ai, aj := alpha[i], alpha[j]
				var lo, hi float64
				if y[i] != y[j] {
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
				ajNew := aj - y[j]*(ei-ej)/eta
				if ajNew > hi {
					ajNew = hi
				} else if ajNew < lo {
					ajNew = lo
				}
				if math.Abs(ajNew-aj) < 1e-5 {
					continue
				}
				aiNew := ai + y[i]*y[j]*(aj-ajNew)

				b1 := b - ei - y[i]*(aiNew-ai)*kii - y[j]*(ajNew-aj)*kij
				b2 := b - ej - y[i]*(aiNew-ai)*kij - y[j]*(ajNew-aj)*kjj
				switch {
				case aiNew > 0 && aiNew < cost:
					b = b1
				case ajNew > 0 && ajNew < cost:
					b = b2
				default:
					b = (b1 + b2) / 2
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

	// Return the kernel buffer to the pool; its contents are dead once
	// training converges.
	*kbuf = k
	kernelPool.Put(kbuf)

	// Keep only the support vectors, as the flat kernel Predict walks.
	c.mean, c.std, c.b, c.gamma = scaler.Mean, scaler.Std, b, gamma
	c.sv, c.coef = nil, nil
	for i := 0; i < n; i++ {
		if alpha[i] > 1e-9 {
			c.sv = append(c.sv, x[i]...)
			c.coef = append(c.coef, alpha[i]*y[i])
		}
	}
	return nil
}

// Decision returns the signed decision value for one instance, using s
// for the standardized vector; 0 before Fit. x must carry at least the
// trained attributes.
func (c *Classifier) Decision(x []float64, s *ml.Scratch) float64 {
	if c.mean == nil {
		return 0
	}
	d := len(c.mean)
	z := s.EnsureZ(len(x))
	for j := range z {
		if j < d {
			z[j] = (x[j] - c.mean[j]) / c.std[j]
		} else {
			z[j] = 0
		}
	}
	sum := c.b
	for i, cf := range c.coef {
		sum += cf * rbf(c.sv[i*d:(i+1)*d], z, c.gamma)
	}
	return sum
}

// Predict returns 1 for a non-negative decision value and 0 otherwise.
func (c *Classifier) Predict(x []float64, s *ml.Scratch) int {
	if c.Decision(x, s) >= 0 {
		return 1
	}
	return 0
}

// rbf keeps the subtract-square ‖a−b‖² form both in Fit's kernel matrix
// and in Decision; it walks a's length, so b must be at least as long.
func rbf(a, b []float64, gamma float64) float64 {
	var ss float64
	for i := range a {
		d := a[i] - b[i]
		ss += d * d
	}
	return math.Exp(-gamma * ss)
}
