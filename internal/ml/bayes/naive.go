// Package bayes implements the two Bayesian synopsis builders of the paper:
// Naive Bayes with Gaussian attribute likelihoods, and Tree-Augmented Naive
// Bayes (TAN), which relaxes Naive Bayes's independence assumption by
// letting each attribute additionally depend on one other attribute chosen
// by a maximum-spanning-tree over conditional mutual information (the
// Chow-Liu construction). The paper finds TAN the best accuracy/runtime
// trade-off of the four learners (§V.B).
package bayes

import (
	"math"

	"hpcap/internal/ml"
	"hpcap/internal/stats"
)

// Naive is a Gaussian Naive Bayes classifier. The Gaussian likelihood
// depends on the continuous input, so it cannot be tabled; the model is
// the log priors and one contiguous [attr*2+class] parameter layout that
// Predict walks in a single fused pass over both class accumulators.
type Naive struct {
	logPrior [2]float64
	mean     []float64 // [j*2+c]
	std      []float64 // [j*2+c]
}

// NewNaive returns an untrained Gaussian Naive Bayes classifier.
func NewNaive() *Naive { return &Naive{} }

// NaiveLearner returns the ml.Learner for Naive Bayes.
func NaiveLearner() ml.Learner {
	return ml.Learner{Name: "Naive", New: func() ml.Classifier { return NewNaive() }}
}

// Fit estimates class priors and per-class Gaussian attribute likelihoods.
func (n *Naive) Fit(d *ml.Dataset) error {
	if d.Len() == 0 {
		return ml.ErrNoData
	}
	n0, n1 := d.ClassCounts()
	if n0 == 0 || n1 == 0 {
		return ml.ErrOneClass
	}
	total := float64(d.Len())
	// Laplace-smoothed priors.
	n.logPrior[0] = math.Log((float64(n0) + 1) / (total + 2))
	n.logPrior[1] = math.Log((float64(n1) + 1) / (total + 2))

	p := d.NumAttrs()
	n.mean = make([]float64, 2*p)
	n.std = make([]float64, 2*p)
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
			n.mean[j*2+c] = stats.Mean(vals[c])
			sd := stats.StdDev(vals[c])
			if sd < 1e-9 {
				sd = 1e-9
			}
			n.std[j*2+c] = sd
		}
	}
	return nil
}

// Predict returns the maximum-posterior class; 0 before Fit.
func (n *Naive) Predict(x []float64, _ *ml.Scratch) int {
	p := len(n.mean) / 2
	lp0, lp1 := n.logPrior[0], n.logPrior[1]
	for j, v := range x {
		if j >= p {
			break
		}
		pdf0 := stats.GaussianPDF(v, n.mean[j*2], n.std[j*2])
		if pdf0 < 1e-300 {
			pdf0 = 1e-300
		}
		lp0 += math.Log(pdf0)
		pdf1 := stats.GaussianPDF(v, n.mean[j*2+1], n.std[j*2+1])
		if pdf1 < 1e-300 {
			pdf1 = 1e-300
		}
		lp1 += math.Log(pdf1)
	}
	if lp1 > lp0 {
		return 1
	}
	return 0
}
