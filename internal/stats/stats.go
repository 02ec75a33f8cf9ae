// Package stats provides the descriptive statistics, information-theoretic
// measures, and discretization utilities used throughout hpcap: Pearson
// correlation for productivity-index selection (paper Eq. 2), entropy and
// (conditional) mutual information for attribute selection and TAN structure
// learning, and equal-frequency discretization for the Bayesian learners.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// ErrLengthMismatch is returned by paired-sample functions when the two
// inputs differ in length.
var ErrLengthMismatch = errors.New("stats: sample length mismatch")

// Mean returns the arithmetic mean of xs, or 0 if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeometricMean returns the geometric mean of xs. Non-positive values are
// clamped to a small epsilon so that normalization of near-zero throughput
// samples (as in the paper's Figure 3 normalization) remains well defined.
func GeometricMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	const eps = 1e-12
	var logSum float64
	for _, x := range xs {
		if x < eps {
			x = eps
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// Variance returns the population variance of xs, or 0 if len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Covariance returns the population covariance of the paired samples.
func Covariance(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrLengthMismatch
	}
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sum float64
	for i := range xs {
		sum += (xs[i] - mx) * (ys[i] - my)
	}
	return sum / float64(len(xs)), nil
}

// Correlation returns the Pearson correlation coefficient between the paired
// samples, the Corr measure of paper Eq. 2. If either sample has zero
// variance the correlation is defined as 0 (no linear relationship can be
// established).
func Correlation(xs, ys []float64) (float64, error) {
	cov, err := Covariance(xs, ys)
	if err != nil {
		return 0, err
	}
	sx, sy := StdDev(xs), StdDev(ys)
	if sx == 0 || sy == 0 {
		return 0, nil
	}
	r := cov / (sx * sy)
	// Guard against floating-point drift outside the mathematical range.
	return math.Max(-1, math.Min(1, r)), nil
}

// GaussianPDF returns the probability density of x under N(mean, stddev²).
// A zero stddev is replaced by a small floor so that degenerate attributes
// (constant in the training set) do not produce infinities in Naive Bayes.
func GaussianPDF(x, mean, stddev float64) float64 {
	const floor = 1e-6
	if stddev < floor {
		stddev = floor
	}
	d := (x - mean) / stddev
	return math.Exp(-0.5*d*d) / (stddev * math.Sqrt(2*math.Pi))
}

// Normalize divides every element of xs by its geometric mean, returning a
// new slice. This is the normalization the paper applies in Figure 3 to plot
// PI and throughput on a comparable scale. A zero geometric mean yields a
// copy of xs.
func Normalize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	gm := GeometricMean(xs)
	if gm == 0 {
		copy(out, xs)
		return out
	}
	for i, x := range xs {
		out[i] = x / gm
	}
	return out
}
