package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"several", []float64{1, 2, 3, 4}, 2.5},
		{"negative", []float64{-2, 2}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", tt.xs, got, tt.want)
			}
		})
	}
}

func TestGeometricMean(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"ones", []float64{1, 1, 1}, 1},
		{"two-and-eight", []float64{2, 8}, 4},
		{"powers", []float64{1, 10, 100}, 10},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := GeometricMean(tt.xs); !almostEqual(got, tt.want, 1e-9) {
				t.Errorf("GeometricMean(%v) = %v, want %v", tt.xs, got, tt.want)
			}
		})
	}
}

func TestGeometricMeanClampsNonPositive(t *testing.T) {
	got := GeometricMean([]float64{0, 4})
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("GeometricMean with zero produced %v", got)
	}
	if got <= 0 {
		t.Fatalf("GeometricMean with zero = %v, want positive", got)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Errorf("Variance of single sample = %v, want 0", got)
	}
}

func TestCovarianceErrors(t *testing.T) {
	if _, err := Covariance([]float64{1}, []float64{1, 2}); err != ErrLengthMismatch {
		t.Errorf("mismatched lengths: err = %v, want ErrLengthMismatch", err)
	}
	if _, err := Covariance(nil, nil); err != ErrEmpty {
		t.Errorf("empty: err = %v, want ErrEmpty", err)
	}
}

func TestCorrelationPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Correlation(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, 1, 1e-12) {
		t.Errorf("Correlation = %v, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, err = Correlation(xs, neg)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, -1, 1e-12) {
		t.Errorf("Correlation = %v, want -1", r)
	}
}

func TestCorrelationZeroVariance(t *testing.T) {
	r, err := Correlation([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if r != 0 {
		t.Errorf("Correlation with constant sample = %v, want 0", r)
	}
}

// Property: correlation is always within [-1, 1].
func TestCorrelationBoundsProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := int(n%64) + 2
		xs := make([]float64, m)
		ys := make([]float64, m)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
			ys[i] = xs[i]*rng.NormFloat64() + rng.NormFloat64()
		}
		r, err := Correlation(xs, ys)
		return err == nil && r >= -1 && r <= 1 && !math.IsNaN(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGaussianPDF(t *testing.T) {
	// Standard normal density at 0 is 1/sqrt(2π).
	want := 1 / math.Sqrt(2*math.Pi)
	if got := GaussianPDF(0, 0, 1); !almostEqual(got, want, 1e-12) {
		t.Errorf("GaussianPDF(0,0,1) = %v, want %v", got, want)
	}
	// Degenerate stddev must not produce Inf/NaN.
	got := GaussianPDF(1, 1, 0)
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("GaussianPDF with zero stddev produced %v", got)
	}
}

func TestNormalize(t *testing.T) {
	xs := []float64{2, 8}
	norm := Normalize(xs)
	// Geometric mean is 4, so normalized values are 0.5 and 2.
	if !almostEqual(norm[0], 0.5, 1e-12) || !almostEqual(norm[1], 2, 1e-12) {
		t.Errorf("Normalize(%v) = %v", xs, norm)
	}
	// The geometric mean of the normalized series is 1.
	if gm := GeometricMean(norm); !almostEqual(gm, 1, 1e-9) {
		t.Errorf("GeometricMean(normalized) = %v, want 1", gm)
	}
}

func TestNormalizeEmpty(t *testing.T) {
	if got := Normalize(nil); len(got) != 0 {
		t.Errorf("Normalize(nil) = %v, want empty", got)
	}
}
