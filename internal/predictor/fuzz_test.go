package predictor

import (
	"testing"
)

// FuzzPredictorUpdate drives a predictor through two sessions with an
// arbitrary byte-encoded stream of Train/Predict/Feedback operations, including malformed GPVs and
// labels. The predictor must never panic, must reject bad inputs with
// errors, and every saturating counter must stay inside ±counterMax.
func FuzzPredictorUpdate(f *testing.F) {
	f.Add([]byte{0x00, 0x12, 0x34, 0x56}, 3, 2)
	f.Add([]byte{0xff, 0xfe, 0x01, 0x80, 0x7f}, 1, 5)
	f.Add([]byte{0x2a, 0x2b, 0x2c, 0x2d, 0x2e, 0x2f}, 4, 1)
	f.Fuzz(func(t *testing.T, ops []byte, m, h int) {
		m = 1 + abs(m)%4 // 1..4 synopses
		h = 1 + abs(h)%5 // 1..5 history bits
		p, err := New(m, 2, Config{HistoryBits: h, Delta: 3})
		if err != nil {
			t.Fatalf("New(%d, 2, h=%d): %v", m, h, err)
		}
		a, b := p.NewSession(), p.NewSession()
		gpv := make([]int, m)
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], int(ops[i+1])
			for j := range gpv {
				// Mostly valid 0/1 votes, occasionally junk the predictor
				// must reject rather than crash on.
				gpv[j] = (arg >> j) & 1
				if op&0x80 != 0 && j == 0 {
					gpv[j] = arg - 128
				}
			}
			overload := arg & 1
			bottleneck := (arg >> 1) & 3 // 0..3: sometimes out of tier range
			switch op % 4 {
			case 0:
				_ = a.Train(gpv, overload, bottleneck)
			case 1:
				_, _, _ = a.Predict(gpv)
			case 2:
				_, _, _ = b.Predict(gpv)
				b.Feedback(overload, bottleneck%2)
			default:
				a.Feedback(overload, bottleneck%2)
				if op == 0xff {
					a.ResetHistory()
					b.ResetHistory()
				}
			}
		}
		// Every reachable Hc must have stayed saturated in range.
		valid := make([]int, m)
		for idx := 0; idx < 1<<m; idx++ {
			for j := range valid {
				valid[j] = (idx >> j) & 1
			}
			for hist := 0; hist < 1<<h; hist++ {
				hc, err := p.Counter(valid, hist)
				if err != nil {
					t.Fatalf("Counter(%v, %d): %v", valid, hist, err)
				}
				if hc < -counterMax || hc > counterMax {
					t.Fatalf("counter Hc[%v][%d] = %d escaped ±%d", valid, hist, hc, counterMax)
				}
			}
		}
	})
}
