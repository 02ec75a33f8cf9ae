// Package linreg implements the linear-regression synopsis builder (the
// "LR" column of the paper's Table I): ordinary least squares with a small
// ridge term for numerical stability, fit to the 0/1 class labels and
// thresholded at ½ for classification. As the paper observes, it can only
// capture linear correlations and is the weakest of the four builders.
package linreg

import (
	"errors"
	"fmt"

	"hpcap/internal/ml"
)

// Classifier is a ridge-regularized least-squares linear classifier.
type Classifier struct {
	// Lambda is the ridge regularization strength; zero selects a small
	// default that guards against the near-collinear metric columns.
	Lambda float64

	// The trained model is flat: standardization parameters and weights
	// walked in one pass, standardizing into the caller's scratch.
	mean []float64
	std  []float64
	w    []float64 // intercept at index 0
}

// New returns a linear-regression classifier with default regularization.
func New() *Classifier { return &Classifier{} }

// Learner returns the ml.Learner for linear regression.
func Learner() ml.Learner {
	return ml.Learner{Name: "LR", New: func() ml.Classifier { return New() }}
}

// Fit solves (XᵀX + λI)w = Xᵀy on standardized attributes.
func (c *Classifier) Fit(d *ml.Dataset) error {
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
	scaler := ml.FitScaler(d)
	rows := scaler.ApplyAll(d)

	p := d.NumAttrs() + 1 // intercept
	// Normal equations: A = XᵀX + λI, b = Xᵀy.
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
	c.mean, c.std, c.w = scaler.Mean, scaler.Std, w
	return nil
}

// Score returns the raw regression output for one instance, using s for
// the standardized vector; 0 before Fit.
func (c *Classifier) Score(x []float64, s *ml.Scratch) float64 {
	if c.w == nil {
		return 0
	}
	z := s.EnsureZ(len(x))
	for j := range z {
		if j < len(c.mean) {
			z[j] = (x[j] - c.mean[j]) / c.std[j]
		} else {
			z[j] = 0
		}
	}
	sum := c.w[0]
	for j, v := range z {
		if j+1 >= len(c.w) {
			break
		}
		sum += c.w[j+1] * v
	}
	return sum
}

// Predict thresholds the regression output at ½.
func (c *Classifier) Predict(x []float64, s *ml.Scratch) int {
	if c.Score(x, s) >= 0.5 {
		return 1
	}
	return 0
}

// solve performs Gaussian elimination with partial pivoting on a copy of
// the system.
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	// Work on copies.
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n+1)
		copy(m[i], a[i])
		m[i][n] = b[i]
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if abs(m[r][col]) > abs(m[pivot][col]) {
				pivot = r
			}
		}
		if abs(m[pivot][col]) < 1e-12 {
			return nil, errors.New("singular system")
		}
		m[col], m[pivot] = m[pivot], m[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			if f == 0 {
				continue
			}
			for k := col; k <= n; k++ {
				m[r][k] -= f * m[col][k]
			}
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := m[i][n]
		for k := i + 1; k < n; k++ {
			s -= m[i][k] * x[k]
		}
		x[i] = s / m[i][i]
	}
	return x, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
