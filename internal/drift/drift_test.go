package drift

import (
	"errors"
	"math"
	"testing"

	"hpcap/internal/core"
)

func TestPageHinkleyQuietOnStationary(t *testing.T) {
	ph := NewPageHinkley(0.01, 25, 20)
	for i := 0; i < 500; i++ {
		// Deterministic 10% error rate: one error every ten windows.
		x := 0.0
		if i%10 == 0 {
			x = 1.0
		}
		if ph.Add(x) {
			t.Fatalf("signal on stationary stream at window %d (stat %.3f)", i, ph.Stat())
		}
	}
	if ph.n != 500 {
		t.Fatalf("N = %d, want 500", ph.n)
	}
}

func TestPageHinkleyFiresOnShift(t *testing.T) {
	ph := NewPageHinkley(0.01, 25, 20)
	for i := 0; i < 100; i++ {
		if ph.Add(0) {
			t.Fatalf("signal during clean baseline at window %d", i)
		}
	}
	fired := -1
	for i := 0; i < 120; i++ {
		if ph.Add(1) {
			fired = i
			break
		}
	}
	if fired < 0 {
		t.Fatalf("no signal after 120 windows of constant errors (stat %.3f)", ph.Stat())
	}
	// λ=25 cumulative excess errors: the adapting mean absorbs some of the
	// shift, so the crossing lands a little past 25 error windows.
	if fired < 25 || fired > 80 {
		t.Errorf("fired after %d error windows, want within [25, 80]", fired)
	}
	ph.Reset()
	if ph.n != 0 || ph.Stat() != 0 {
		t.Errorf("reset left N=%d stat=%.3f", ph.n, ph.Stat())
	}
}

func TestPageHinkleyIgnoresNonFinite(t *testing.T) {
	ph := NewPageHinkley(0.01, 25, 20)
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if ph.Add(x) {
			t.Fatalf("signal on non-finite input %v", x)
		}
	}
	if ph.n != 0 {
		t.Fatalf("non-finite inputs were counted: N=%d", ph.n)
	}
}

func TestDetectorAccuracySignal(t *testing.T) {
	d, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	seq := int64(0)
	obs := func(errs bool) []Signal {
		o := Observation{Seq: seq, Predicted: errs, Truth: false}
		seq++
		return d.Observe(o)
	}
	for i := 0; i < 50; i++ {
		if sigs := obs(false); len(sigs) != 0 {
			t.Fatalf("signal on clean stream: %v", sigs)
		}
	}
	var got []Signal
	for i := 0; i < 200 && len(got) == 0; i++ {
		got = obs(true)
	}
	if len(got) != 1 {
		t.Fatalf("want exactly one signal, got %v", got)
	}
	s := got[0]
	if s.Kind != KindAccuracy || s.Score <= s.Threshold {
		t.Fatalf("unexpected signal %+v", s)
	}
	if s.Seq != seq-1 {
		t.Errorf("signal Seq = %d, want %d", s.Seq, seq-1)
	}
	// The test resets itself after firing and re-baselines on the new
	// (all-error) regime: the same regime continued must not re-fire
	// immediately.
	for i := 0; i < 10; i++ {
		if sigs := obs(true); len(sigs) != 0 {
			t.Fatalf("re-fired %v right after reset", sigs)
		}
	}
}

func TestMixShiftLearnedReference(t *testing.T) {
	d, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	browse := []float64{90, 10}
	order := []float64{10, 90}
	seq := int64(0)
	obs := func(counts []float64) []Signal {
		o := Observation{Seq: seq, ClassCounts: counts}
		seq++
		return d.Observe(o)
	}
	// Reference learning (8 windows) + ring fill (12) + stable stream.
	for i := 0; i < 40; i++ {
		if sigs := obs(browse); len(sigs) != 0 {
			t.Fatalf("signal on stable mix at window %d: %v", i, sigs)
		}
	}
	var got []Signal
	for i := 0; i < 40 && len(got) == 0; i++ {
		got = obs(order)
	}
	if len(got) != 1 || got[0].Kind != KindMixShift {
		t.Fatalf("want one mix-shift signal, got %v", got)
	}
	if got[0].Score <= got[0].Threshold {
		t.Fatalf("score %.4f must exceed threshold %.4f", got[0].Score, got[0].Threshold)
	}

	// Reset relearns the reference from the post-swap stream: the ordering
	// mix is now the baseline and must not re-fire.
	d.Reset()
	for i := 0; i < 60; i++ {
		if sigs := obs(order); len(sigs) != 0 {
			t.Fatalf("signal after reset re-baselined at window %d: %v", i, sigs)
		}
	}
}

func TestMixShiftDisabled(t *testing.T) {
	d, err := New(Config{MixThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		counts := []float64{90, 10}
		if i > 20 {
			counts = []float64{10, 90}
		}
		if sigs := d.Observe(Observation{Seq: int64(i), ClassCounts: counts}); len(sigs) != 0 {
			t.Fatalf("disabled mix test signalled: %v", sigs)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{MixWindow: -1}); !errors.Is(err, core.ErrBadConfig) {
		t.Fatalf("negative mix window: got %v, want ErrBadConfig", err)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindAccuracy: "accuracy",
		KindMixShift: "mix-shift",
		Kind(9):      "Kind(9)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestJensenShannon(t *testing.T) {
	if v := jensenShannon(nil, nil); v != 0 {
		t.Errorf("empty = %v, want 0", v)
	}
	if v := jensenShannon([]float64{0, 0}, []float64{1, 1}); v != 0 {
		t.Errorf("zero-mass side = %v, want 0", v)
	}
	if v := jensenShannon([]float64{3, 7}, []float64{30, 70}); math.Abs(v) > 1e-12 {
		t.Errorf("identical distributions = %v, want 0", v)
	}
	// Disjoint support attains the maximum, ln 2.
	if v := jensenShannon([]float64{1, 0}, []float64{0, 1}); math.Abs(v-math.Ln2) > 1e-12 {
		t.Errorf("disjoint = %v, want ln2 = %v", v, math.Ln2)
	}
	// Different lengths: missing classes count as zero.
	if v := jensenShannon([]float64{1}, []float64{0, 1}); math.Abs(v-math.Ln2) > 1e-12 {
		t.Errorf("length mismatch disjoint = %v, want ln2", v)
	}
}
