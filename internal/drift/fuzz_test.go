package drift

import (
	"math"
	"math/rand"
	"testing"
)

func fuzzDetector(t *testing.T) *Detector {
	t.Helper()
	d, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// FuzzDetectorNoPanic feeds arbitrary byte-derived streams — including
// NaN/Inf and negative class counts and constant columns — and requires
// only that the detector never panics and that any signal it does emit is
// well-formed.
func FuzzDetectorNoPanic(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 251, 252, 253, 254, 255})
	f.Add([]byte("constant columns and weird values"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := fuzzDetector(t)
		val := func(b byte) float64 {
			switch b % 8 {
			case 0:
				return math.NaN()
			case 1:
				return math.Inf(1)
			case 2:
				return math.Inf(-1)
			case 3:
				return -float64(b)
			case 4:
				return 0
			case 5:
				return 1 // constant column fodder
			default:
				return float64(b) / 16
			}
		}
		for i := 0; i < len(data); i++ {
			b := data[i]
			var o Observation
			o.Seq = int64(i)
			o.Predicted = b&1 != 0
			o.Truth = b&2 != 0
			if b%5 != 0 {
				counts := make([]float64, int(b%6))
				for j := range counts {
					counts[j] = val(b + byte(3*j))
				}
				o.ClassCounts = counts
			}
			for _, s := range d.Observe(o) {
				if s.Seq != o.Seq {
					t.Fatalf("signal %+v carries wrong Seq, want %d", s, o.Seq)
				}
				if math.IsNaN(s.Score) || math.IsInf(s.Score, 0) {
					t.Fatalf("signal %+v has non-finite score", s)
				}
			}
			if b == 77 {
				d.Reset()
			}
		}
	})
}

// FuzzDetectorIIDQuiet streams i.i.d. observations — stationary Bernoulli
// errors and a stable class mix — and requires that no detector signals at
// the default thresholds. The fuzzer searches the seed space adversarially,
// so the stream is sized to keep every false positive beyond ~6σ: 100
// windows with error rate ≤ 0.2 puts the default Page–Hinkley λ of 25 at
// more than six standard deviations of the error walk.
func FuzzDetectorIIDQuiet(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(2))
	f.Add(uint64(12345))
	f.Add(uint64(987654321))
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := rand.New(rand.NewSource(int64(seed)))
		d := fuzzDetector(t)
		errRate := 0.2 * rng.Float64()
		mix := []float64{0.5, 0.3, 0.15, 0.05}
		for i := 0; i < 100; i++ {
			var o Observation
			o.Seq = int64(i)
			o.Truth = rng.Float64() < 0.3
			o.Predicted = o.Truth
			if rng.Float64() < errRate {
				o.Predicted = !o.Predicted
			}
			counts := make([]float64, len(mix))
			for j, p := range mix {
				counts[j] = p * 200 * (0.9 + 0.2*rng.Float64())
			}
			o.ClassCounts = counts
			if sigs := d.Observe(o); len(sigs) != 0 {
				t.Fatalf("seed %d: signal on i.i.d. stream at window %d: %v", seed, i, sigs)
			}
		}
	})
}
