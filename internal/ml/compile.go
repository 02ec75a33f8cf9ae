package ml

// Scratch is caller-owned working storage for allocation-free prediction.
// A trained classifier is shared read-only across every concurrent
// prediction stream, so the per-call temporaries (projected attribute
// vector, standardized vector, discretized bins) must live with the
// caller: give each stream its own Scratch and Predict never allocates
// after the first call.
type Scratch struct {
	// X is the projected attribute vector (synopsis attribute order).
	X []float64
	// Z is the standardized vector for scaler-based learners (SVM, LR).
	Z []float64
	// Bins is the discretized vector for the Bayesian learners (TAN).
	Bins []int
}

// EnsureX returns s.X resized to n, reallocating only on growth.
func (s *Scratch) EnsureX(n int) []float64 {
	if cap(s.X) < n {
		s.X = make([]float64, n)
	}
	s.X = s.X[:n]
	return s.X
}

// EnsureZ returns s.Z resized to n, reallocating only on growth.
func (s *Scratch) EnsureZ(n int) []float64 {
	if cap(s.Z) < n {
		s.Z = make([]float64, n)
	}
	s.Z = s.Z[:n]
	return s.Z
}

// EnsureBins returns s.Bins resized to n, reallocating only on growth.
func (s *Scratch) EnsureBins(n int) []int {
	if cap(s.Bins) < n {
		s.Bins = make([]int, n)
	}
	s.Bins = s.Bins[:n]
	return s.Bins
}
