package svm

import "math"

// NumSupportVectors returns the size of the trained model.
func (c *Classifier) NumSupportVectors() int { return len(c.coef) }

// Alphas exposes the support-vector coefficients (for invariant tests).
// Each is |alpha·y| with y = ±1, which is alpha exactly.
func (c *Classifier) Alphas() []float64 {
	out := make([]float64, len(c.coef))
	for i, cf := range c.coef {
		out[i] = math.Abs(cf)
	}
	return out
}

// EffectiveC returns the soft-margin penalty in use.
func (c *Classifier) EffectiveC() float64 {
	if c.C <= 0 {
		return 1
	}
	return c.C
}
