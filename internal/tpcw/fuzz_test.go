package tpcw

import (
	"math"
	"testing"
)

// FuzzMixNormalize feeds NewMix arbitrary order fractions — including NaN
// and the infinities — and arbitrary per-interaction skews through the
// normalize path. The mix must always come out a valid distribution:
// weights non-negative, free of NaN, summing to 1. NaN previously slipped
// through the range clamps (NaN compares false to everything) and produced
// all-NaN weights.
func FuzzMixNormalize(f *testing.F) {
	f.Add(0.05, 1.0, 1.0, uint8(0))
	f.Add(0.5, 1.8, 0.6, uint8(3))
	f.Add(math.NaN(), 1.0, 1.0, uint8(1))
	f.Add(math.Inf(1), 0.0, 2.5, uint8(7))
	f.Add(-3.0, 1e308, 1e-308, uint8(14))
	f.Fuzz(func(t *testing.T, frac, skewA, skewB float64, which uint8) {
		m := NewMix("fuzz", frac)
		if err := m.Validate(); err != nil {
			t.Fatalf("NewMix(%v) invalid: %v", frac, err)
		}
		of := orderFraction(m)
		if math.IsNaN(of) || of < -1e-9 || of > 1+1e-9 {
			t.Fatalf("orderFraction(NewMix(%v)) = %v", frac, of)
		}

		// Skew two interactions and renormalize, as Unknown() does. Keep
		// the skews to non-negative finite factors — negative weights are
		// rejected by Validate by design — but allow extreme magnitudes.
		if math.IsNaN(skewA) || math.IsInf(skewA, 0) || skewA < 0 {
			skewA = 1
		}
		if math.IsNaN(skewB) || math.IsInf(skewB, 0) || skewB < 0 {
			skewB = 1
		}
		ints := Interactions()
		a := ints[int(which)%len(ints)]
		b := ints[int(which/2)%len(ints)]
		m.Weights[a] *= skewA
		m.Weights[b] *= skewB
		normalize(m.Weights)
		if err := m.Validate(); err != nil {
			// A zero/overflowed total leaves the weights unnormalized but
			// must never produce NaN or negative weights.
			var total float64
			for _, i := range Interactions() {
				w := m.Weights[i]
				if math.IsNaN(w) || w < 0 {
					t.Fatalf("skewed mix has bad weight %v for %v: %v", w, i, err)
				}
				total += w
			}
			if total >= 0.999 && total <= 1.001 {
				t.Fatalf("normalized mix still invalid: %v", err)
			}
			return
		}

		// A valid mix must drive the sampler without panicking.
		s := m.Sampler()
		_ = s
	})
}
