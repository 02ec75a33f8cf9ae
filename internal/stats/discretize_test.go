package stats

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewEqualFrequency(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	d, err := NewEqualFrequency(xs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.Bins() != 4 {
		t.Fatalf("Bins = %d, want 4", d.Bins())
	}
	// Each quarter of the sorted data should land in its own bin.
	bins := d.BinAll(xs)
	counts := map[int]int{}
	for _, b := range bins {
		counts[b]++
	}
	if len(counts) != 4 {
		t.Errorf("distinct bins = %d, want 4 (bins: %v)", len(counts), bins)
	}
}

func TestNewEqualFrequencyDuplicates(t *testing.T) {
	// Heavy duplication collapses cut points rather than producing
	// out-of-order or duplicate cuts.
	xs := []float64{1, 1, 1, 1, 1, 1, 9}
	d, err := NewEqualFrequency(xs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(d.Cuts); i++ {
		if d.Cuts[i] <= d.Cuts[i-1] {
			t.Fatalf("cuts not strictly increasing: %v", d.Cuts)
		}
	}
}

func TestNewEqualFrequencyErrors(t *testing.T) {
	if _, err := NewEqualFrequency([]float64{1}, 1); err == nil {
		t.Error("bins < 2 should error")
	}
	if _, err := NewEqualFrequency(nil, 4); err != ErrEmpty {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

// Property: Bin is monotone non-decreasing in its argument and always within
// [0, Bins()).
func TestDiscretizerMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 40)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 50
		}
		d, err := NewEqualFrequency(xs, 6)
		if err != nil {
			return false
		}
		probes := make([]float64, 30)
		for i := range probes {
			probes[i] = rng.NormFloat64() * 80
		}
		sort.Float64s(probes)
		prev := -1
		for _, p := range probes {
			b := d.Bin(p)
			if b < 0 || b >= d.Bins() || b < prev {
				return false
			}
			prev = b
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every training value maps into a valid bin and the extreme bins
// are reachable.
func TestDiscretizerCoverageProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 64)
		for i := range xs {
			xs[i] = rng.Float64() * 1000
		}
		d, err := NewEqualFrequency(xs, 4)
		if err != nil {
			return false
		}
		sawFirst, sawLast := false, false
		for _, x := range xs {
			b := d.Bin(x)
			if b < 0 || b >= d.Bins() {
				return false
			}
			if b == 0 {
				sawFirst = true
			}
			if b == d.Bins()-1 {
				sawLast = true
			}
		}
		return sawFirst && sawLast
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
