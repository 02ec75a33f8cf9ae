package predictor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, m, tiers int, cfg Config) *Predictor {
	t.Helper()
	p, err := New(m, tiers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 2, Config{}); err == nil {
		t.Error("m=0 not rejected")
	}
	if _, err := New(17, 2, Config{}); err == nil {
		t.Error("m=17 not rejected")
	}
	if _, err := New(4, 0, Config{}); err == nil {
		t.Error("tiers=0 not rejected")
	}
	if _, err := New(4, 2, Config{HistoryBits: 13}); err == nil {
		t.Error("history=13 not rejected")
	}
}

func TestDefaults(t *testing.T) {
	p := mustNew(t, 4, 2, Config{})
	cfg := p.cfg
	if cfg.HistoryBits != 3 || cfg.Delta != 5 || cfg.Scheme != Optimistic {
		t.Errorf("defaults = %+v, want paper's h=3, δ=5, optimistic", cfg)
	}
}

func TestSchemeString(t *testing.T) {
	if Optimistic.String() != "optimistic" || Pessimistic.String() != "pessimistic" {
		t.Error("scheme names wrong")
	}
	if Scheme(9).String() != "Scheme(9)" {
		t.Error("unknown scheme name wrong")
	}
}

func TestGPVValidation(t *testing.T) {
	p := mustNew(t, 4, 2, Config{})
	s := p.NewSession()
	if err := s.Train([]int{1, 0}, 1, 0); err == nil {
		t.Error("short GPV not rejected")
	}
	if err := s.Train([]int{1, 0, 2, 0}, 1, 0); err == nil {
		t.Error("non-binary GPV not rejected")
	}
	if err := s.Train([]int{1, 0, 1, 0}, 2, 0); err == nil {
		t.Error("bad label not rejected")
	}
	if err := s.Train([]int{1, 0, 1, 0}, 1, 5); err == nil {
		t.Error("bad bottleneck not rejected")
	}
	if _, _, err := s.Predict([]int{1}); err == nil {
		t.Error("short GPV in Predict not rejected")
	}
}

func TestLearnsConsistentPattern(t *testing.T) {
	// Synopsis pattern [1,0,1,0] always means overload with tier 1 as
	// bottleneck; [0,0,0,0] always means underload. After training, the
	// predictor must reproduce both.
	p := mustNew(t, 4, 2, Config{})
	s := p.NewSession()
	for i := 0; i < 50; i++ {
		if err := s.Train([]int{1, 0, 1, 0}, 1, 1); err != nil {
			t.Fatal(err)
		}
		if err := s.Train([]int{0, 0, 0, 0}, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	s.ResetHistory()
	over, bott, err := s.Predict([]int{1, 0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if over != 1 {
		t.Error("trained overload pattern predicted underload")
	}
	if bott != 1 {
		t.Errorf("bottleneck = %d, want 1", bott)
	}
	over, bott, err = s.Predict([]int{0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if over != 0 {
		t.Error("trained underload pattern predicted overload")
	}
	if bott != -1 {
		t.Errorf("bottleneck on underload = %d, want -1 (not invoked)", bott)
	}
}

func TestMasksInaccurateSynopses(t *testing.T) {
	// Bit 3 flips randomly (an inaccurate synopsis); bits 0-2 carry the
	// truth. The coordinated predictor must learn both variants of each
	// pattern — "masking" the bad synopsis, as the paper puts it.
	p := mustNew(t, 4, 2, Config{})
	s := p.NewSession()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		noise := rng.Intn(2)
		truth := i % 2
		gpv := []int{truth, truth, truth, noise}
		if err := s.Train(gpv, truth, 0); err != nil {
			t.Fatal(err)
		}
	}
	s.ResetHistory()
	correct := 0
	for i := 0; i < 100; i++ {
		noise := rng.Intn(2)
		truth := i % 2
		over, _, err := s.Predict([]int{truth, truth, truth, noise})
		if err != nil {
			t.Fatal(err)
		}
		if over == truth {
			correct++
		}
	}
	if correct < 95 {
		t.Errorf("coordinated accuracy with one noisy synopsis = %d%%, want ≥95%%", correct)
	}
}

func TestDeltaUncertaintyBand(t *testing.T) {
	// With only a couple of training updates, |Hc| stays within δ=5 and
	// the tie-break decides.
	opt := mustNew(t, 2, 2, Config{Scheme: Optimistic}).NewSession()
	pes := mustNew(t, 2, 2, Config{Scheme: Pessimistic}).NewSession()
	for i := 0; i < 3; i++ {
		if err := opt.Train([]int{1, 1}, 1, 0); err != nil {
			t.Fatal(err)
		}
		if err := pes.Train([]int{1, 1}, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	opt.ResetHistory()
	pes.ResetHistory()
	overOpt, _, err := opt.Predict([]int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	overPes, _, err := pes.Predict([]int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if overOpt != 0 {
		t.Error("optimistic scheme should predict underload inside the band")
	}
	if overPes != 1 {
		t.Error("pessimistic scheme should predict overload inside the band")
	}
}

func TestCounterSaturates(t *testing.T) {
	p := mustNew(t, 1, 1, Config{Delta: 1})
	s := p.NewSession()
	for i := 0; i < 3*counterMax; i++ {
		if err := s.Train([]int{1}, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	// All history cells were visited with saturating increments; none may
	// exceed the cap.
	for h := 0; h < 8; h++ {
		hc, err := p.Counter([]int{1}, h)
		if err != nil {
			t.Fatal(err)
		}
		if hc > counterMax || hc < -counterMax {
			t.Fatalf("Hc = %d exceeds saturation ±%d", hc, counterMax)
		}
	}
}

// TestFeedbackSaturates checks that online Feedback, like Train, stops
// at ±counterMax: one-bit history makes cell 1 take every overload update
// and cell 0 every underload one.
func TestFeedbackSaturates(t *testing.T) {
	p := mustNew(t, 1, 1, Config{Delta: 1, HistoryBits: 1})
	s := p.NewSession()
	const n = 3 * counterMax
	for _, tc := range []struct{ overload, history, want int }{{1, 1, counterMax}, {0, 0, -counterMax}} {
		for i := 0; i < n; i++ {
			if _, _, err := s.Predict([]int{1}); err != nil {
				t.Fatal(err)
			}
			s.Feedback(tc.overload, 0)
		}
		if hc, err := p.Counter([]int{1}, tc.history); err != nil || hc != tc.want {
			t.Fatalf("after %d Feedback(%d, 0): Hc[history %d] = %d (err %v), want %d",
				n, tc.overload, tc.history, hc, err, tc.want)
		}
	}
}

func TestHistoryDistinguishesTemporalPatterns(t *testing.T) {
	// Same GPV, different temporal context: after a run of overloads the
	// pattern continues overloaded; after a run of underloads it is a
	// transient blip. h-bit history should separate the two.
	p := mustNew(t, 1, 1, Config{HistoryBits: 2, Delta: 0})
	s := p.NewSession()
	// Build: GPV=1 following history "11" → overload; GPV=1 following
	// history "00" → underload (flaky synopsis during recovery).
	for i := 0; i < 60; i++ {
		// Sequence: 1,1,1 (overloads) then 0,0,1-but-underloaded.
		if err := s.Train([]int{1}, 1, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Train([]int{1}, 1, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Train([]int{1}, 1, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Train([]int{0}, 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Train([]int{0}, 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Train([]int{1}, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Drive history to "11" via two observed overloads (online feedback
	// corrects the history register with the truth).
	s.ResetHistory()
	if _, _, err := s.Predict([]int{1}); err != nil {
		t.Fatal(err)
	}
	s.Feedback(1, 0)
	if _, _, err := s.Predict([]int{1}); err != nil {
		t.Fatal(err)
	}
	s.Feedback(1, 0)
	over, _, err := s.Predict([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if over != 1 {
		t.Error("GPV=1 after overload history should stay overloaded")
	}
	// The (GPV=1, history=00) cell sees both blips (underloaded) and
	// run-starts (overloaded) in this sequence, so its counter must stay
	// ambivalent — far from the saturation the unambiguous (1|11) cell
	// reaches.
	hcAmbiguous, err := p.Counter([]int{1}, 0b00)
	if err != nil {
		t.Fatal(err)
	}
	hcClear, err := p.Counter([]int{1}, 0b11)
	if err != nil {
		t.Fatal(err)
	}
	if abs(hcAmbiguous) >= abs(hcClear) {
		t.Errorf("ambiguous cell |Hc|=%d not below clear cell |Hc|=%d",
			abs(hcAmbiguous), abs(hcClear))
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestFeedbackAdapts(t *testing.T) {
	p := mustNew(t, 1, 2, Config{Delta: 0})
	s := p.NewSession()
	s.ResetHistory()
	// Untrained: Hc=0, optimistic default → underload. Feed back truth
	// "overload" repeatedly; prediction must flip.
	for i := 0; i < 10; i++ {
		if _, _, err := s.Predict([]int{1}); err != nil {
			t.Fatal(err)
		}
		s.Feedback(1, 0)
		s.ResetHistory()
	}
	over, bott, err := s.Predict([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if over != 1 {
		t.Error("online feedback did not flip the prediction")
	}
	if bott != 0 {
		t.Errorf("bottleneck after feedback = %d, want 0", bott)
	}
}

func TestFeedbackBeforePredictIsNoop(t *testing.T) {
	p := mustNew(t, 2, 2, Config{})
	s := p.NewSession()
	s.Feedback(1, 0) // must not panic or corrupt state
	hc, err := p.Counter([]int{0, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hc != 0 {
		t.Errorf("Feedback before Predict mutated Hc to %d", hc)
	}
}

// Property: GPV indexing is a bijection — training one pattern never
// disturbs the counters of another pattern (with Delta 0 and distinct
// histories controlled via ResetHistory).
func TestGPVIsolationProperty(t *testing.T) {
	f := func(bits [4]bool, other [4]bool) bool {
		gpv := make([]int, 4)
		gpv2 := make([]int, 4)
		same := true
		for i := range bits {
			if bits[i] {
				gpv[i] = 1
			}
			if other[i] {
				gpv2[i] = 1
			}
			if gpv[i] != gpv2[i] {
				same = false
			}
		}
		if same {
			return true
		}
		p, err := New(4, 2, Config{})
		if err != nil {
			return false
		}
		s := p.NewSession()
		for i := 0; i < 20; i++ {
			s.ResetHistory()
			if err := s.Train(gpv, 1, 0); err != nil {
				return false
			}
		}
		hc, err := p.Counter(gpv2, 0)
		return err == nil && hc == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Hc always stays within the saturation bound under arbitrary
// training sequences.
func TestSaturationProperty(t *testing.T) {
	f := func(seed int64, labels []bool) bool {
		p, err := New(2, 2, Config{})
		if err != nil {
			return false
		}
		s := p.NewSession()
		rng := rand.New(rand.NewSource(seed))
		for _, l := range labels {
			gpv := []int{rng.Intn(2), rng.Intn(2)}
			label := 0
			if l {
				label = 1
			}
			if err := s.Train(gpv, label, rng.Intn(2)); err != nil {
				return false
			}
		}
		for g := 0; g < 4; g++ {
			gpv := []int{g & 1, g >> 1}
			for h := 0; h < 8; h++ {
				hc, err := p.Counter(gpv, h)
				if err != nil || hc > counterMax || hc < -counterMax {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
