package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEntropy(t *testing.T) {
	tests := []struct {
		name   string
		counts []int
		want   float64
	}{
		{"empty", nil, 0},
		{"zero-total", []int{0, 0}, 0},
		{"pure", []int{10, 0}, 0},
		{"uniform2", []int{5, 5}, 1},
		{"uniform4", []int{3, 3, 3, 3}, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Entropy(tt.counts); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Entropy(%v) = %v, want %v", tt.counts, got, tt.want)
			}
		})
	}
}

// entropyLabels is H(X) of a label sequence: the information it gains
// about itself, I(X; X).
func entropyLabels(t *testing.T, xs []int) float64 {
	t.Helper()
	h, err := InformationGain(xs, xs)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestEntropyLabels(t *testing.T) {
	if got := entropyLabels(t, []int{0, 0, 1, 1}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("H = %v, want 1", got)
	}
	if got := entropyLabels(t, []int{7, 7, 7}); got != 0 {
		t.Errorf("H of constant = %v, want 0", got)
	}
}

func TestInformationGainPerfectPredictor(t *testing.T) {
	// Attribute identical to the class: IG equals H(C) = 1 bit.
	xs := []int{0, 0, 1, 1}
	cs := []int{0, 0, 1, 1}
	ig, err := InformationGain(xs, cs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(ig, 1, 1e-12) {
		t.Errorf("IG of perfect predictor = %v, want 1", ig)
	}
}

func TestInformationGainIndependent(t *testing.T) {
	// Attribute carries no information about the class.
	xs := []int{0, 1, 0, 1}
	cs := []int{0, 0, 1, 1}
	ig, err := InformationGain(xs, cs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(ig, 0, 1e-12) {
		t.Errorf("IG of independent attribute = %v, want 0", ig)
	}
}

func TestInformationGainErrors(t *testing.T) {
	if _, err := InformationGain([]int{1}, []int{1, 2}); err != ErrLengthMismatch {
		t.Errorf("err = %v, want ErrLengthMismatch", err)
	}
	if _, err := InformationGain(nil, nil); err != ErrEmpty {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

func TestMutualInformationIdentical(t *testing.T) {
	xs := []int{0, 1, 0, 1, 0, 1}
	mi, err := InformationGain(xs, xs)
	if err != nil {
		t.Fatal(err)
	}
	// I(X;X) = H(X) = 1 bit for a balanced binary variable.
	if !almostEqual(mi, 1, 1e-12) {
		t.Errorf("I(X;X) = %v, want 1", mi)
	}
}

func TestMutualInformationIndependent(t *testing.T) {
	// All four combinations equally likely: independent.
	xs := []int{0, 0, 1, 1}
	ys := []int{0, 1, 0, 1}
	mi, err := InformationGain(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(mi, 0, 1e-12) {
		t.Errorf("I(X;Y) independent = %v, want 0", mi)
	}
}

// Property: information gain, the mutual information I(X; Y), is
// non-negative and bounded by min(H(X),H(Y)).
func TestMutualInformationBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50
		xs := make([]int, n)
		ys := make([]int, n)
		for i := range xs {
			xs[i] = rng.Intn(4)
			ys[i] = rng.Intn(3)
		}
		mi, err := InformationGain(xs, ys)
		if err != nil {
			return false
		}
		hx := entropyLabels(t, xs)
		hy := entropyLabels(t, ys)
		bound := math.Min(hx, hy)
		return mi >= -1e-9 && mi <= bound+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConditionalMutualInformation(t *testing.T) {
	// X and Y identical, Z constant: I(X;Y|Z) = H(X) = 1.
	xs := []int{0, 1, 0, 1}
	zs := []int{0, 0, 0, 0}
	cmi, err := ConditionalMutualInformation(xs, xs, zs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(cmi, 1, 1e-12) {
		t.Errorf("I(X;X|const) = %v, want 1", cmi)
	}

	// X determined entirely by Z, Y determined entirely by Z:
	// conditioned on Z they are constants, so I(X;Y|Z) = 0.
	zs2 := []int{0, 0, 1, 1}
	xs2 := []int{0, 0, 1, 1}
	ys2 := []int{1, 1, 0, 0}
	cmi, err = ConditionalMutualInformation(xs2, ys2, zs2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(cmi, 0, 1e-12) {
		t.Errorf("I(X;Y|Z) with Z-determined variables = %v, want 0", cmi)
	}
}

func TestConditionalMutualInformationErrors(t *testing.T) {
	if _, err := ConditionalMutualInformation([]int{1}, []int{1, 2}, []int{1}); err != ErrLengthMismatch {
		t.Errorf("err = %v, want ErrLengthMismatch", err)
	}
	if _, err := ConditionalMutualInformation(nil, nil, nil); err != ErrEmpty {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

// Property: CMI is non-negative.
func TestConditionalMutualInformationNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 60
		xs := make([]int, n)
		ys := make([]int, n)
		zs := make([]int, n)
		for i := range xs {
			xs[i] = rng.Intn(3)
			ys[i] = rng.Intn(3)
			zs[i] = rng.Intn(2)
		}
		cmi, err := ConditionalMutualInformation(xs, ys, zs)
		return err == nil && cmi >= 0 && !math.IsNaN(cmi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
