package tpcw

import (
	"math"
	"testing"

	"hpcap/internal/sim"
)

func TestSteadySchedule(t *testing.T) {
	s := Steady(Browsing(), 50, 300)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Duration() != 300 {
		t.Errorf("Duration = %v, want 300", s.Duration())
	}
	p := s.At(150)
	if p.EBs != 50 || p.Mix.Name != "browsing" {
		t.Errorf("At(150) = %+v", p)
	}
}

func TestRampSchedule(t *testing.T) {
	s := Ramp(Ordering(), 10, 100, 10, 60)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Phases) != 10 {
		t.Fatalf("phases = %d, want 10", len(s.Phases))
	}
	if s.Phases[0].EBs != 10 {
		t.Errorf("first phase EBs = %d, want 10", s.Phases[0].EBs)
	}
	if s.Phases[9].EBs != 100 {
		t.Errorf("last phase EBs = %d, want 100", s.Phases[9].EBs)
	}
	// Monotone non-decreasing.
	for i := 1; i < len(s.Phases); i++ {
		if s.Phases[i].EBs < s.Phases[i-1].EBs {
			t.Errorf("ramp not monotone at %d: %d < %d", i, s.Phases[i].EBs, s.Phases[i-1].EBs)
		}
	}
}

func TestRampSingleStep(t *testing.T) {
	s := Ramp(Ordering(), 10, 100, 0, 60)
	if len(s.Phases) != 1 {
		t.Fatalf("phases = %d, want 1", len(s.Phases))
	}
	if s.Phases[0].EBs != 10 {
		t.Errorf("single-step ramp EBs = %d, want start", s.Phases[0].EBs)
	}
}

func TestSpikeSchedule(t *testing.T) {
	s := Spike(Browsing(), 40, 200, 300, 60, 3)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Phases) != 6 {
		t.Fatalf("phases = %d, want 6", len(s.Phases))
	}
	if s.Phases[0].EBs != 40 || s.Phases[1].EBs != 200 {
		t.Errorf("spike pattern wrong: %d, %d", s.Phases[0].EBs, s.Phases[1].EBs)
	}
	if s.Duration() != 3*(300+60) {
		t.Errorf("Duration = %v, want %v", s.Duration(), 3*(300+60))
	}
}

func TestScheduleAtBoundaries(t *testing.T) {
	s := Concat(Steady(Browsing(), 10, 100), Steady(Ordering(), 20, 100))
	if got := s.At(0).EBs; got != 10 {
		t.Errorf("At(0).EBs = %d, want 10", got)
	}
	if got := s.At(99.9).EBs; got != 10 {
		t.Errorf("At(99.9).EBs = %d, want 10", got)
	}
	if got := s.At(100).EBs; got != 20 {
		t.Errorf("At(100).EBs = %d, want 20", got)
	}
	// Beyond the end: final phase persists.
	if got := s.At(1e9).EBs; got != 20 {
		t.Errorf("At(inf).EBs = %d, want 20", got)
	}
}

func TestScheduleValidateErrors(t *testing.T) {
	if err := (Schedule{}).Validate(); err == nil {
		t.Error("empty schedule not rejected")
	}
	for _, d := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := Schedule{Phases: []Phase{{Mix: Browsing(), EBs: 10, Duration: d}}}
		if err := bad.Validate(); err == nil {
			t.Errorf("duration %v not rejected", d)
		}
	}
	bad2 := Schedule{Phases: []Phase{{Mix: Browsing(), EBs: -1, Duration: 10}}}
	if err := bad2.Validate(); err == nil {
		t.Error("negative EBs not rejected")
	}
}

func TestEmptyScheduleAt(t *testing.T) {
	var s Schedule
	p := s.At(10)
	if p.EBs != 0 {
		t.Errorf("empty schedule At = %+v, want zero phase", p)
	}
}

func TestBrowserThinkTime(t *testing.T) {
	rng := sim.NewSource(5)
	b := NewBrowser(1, Browsing(), rng)
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		th := b.Think()
		if th < 0 {
			t.Fatalf("negative think time %v", th)
		}
		sum += th
	}
	mean := sum / n
	if math.Abs(mean-DefaultThinkTime) > 0.3 {
		t.Errorf("mean think = %v, want ≈%v", mean, DefaultThinkTime)
	}
}

func TestBrowserMixRoughlyPreserved(t *testing.T) {
	// Even with checkout chaining, the long-run order fraction should stay
	// in the neighborhood of the configured mix.
	rng := sim.NewSource(5)
	b := NewBrowser(1, Ordering(), rng)
	const n = 100000
	var orders int
	for i := 0; i < n; i++ {
		if isOrder(b.Next()) {
			orders++
		}
	}
	got := float64(orders) / n
	if got < 0.45 || got > 0.75 {
		t.Errorf("long-run order fraction = %v, want in [0.45, 0.75]", got)
	}
}

func TestBrowserSetMix(t *testing.T) {
	rng := sim.NewSource(5)
	b := NewBrowser(1, Browsing(), rng)
	b.SetMix(Ordering())
	const n = 50000
	var orders int
	for i := 0; i < n; i++ {
		if isOrder(b.Next()) {
			orders++
		}
	}
	if float64(orders)/n < 0.4 {
		t.Errorf("after SetMix(ordering), order fraction = %v, want > 0.4", float64(orders)/n)
	}
}

func TestBrowserCheckoutChains(t *testing.T) {
	// A ShoppingCart interaction should sometimes be followed by
	// CustomerRegistration (the checkout chain).
	rng := sim.NewSource(77)
	b := NewBrowser(1, Ordering(), rng)
	chained := 0
	carts := 0
	prev := Interaction(0)
	for i := 0; i < 50000; i++ {
		cur := b.Next()
		if prev == ShoppingCart {
			carts++
			if cur == CustomerRegistration {
				chained++
			}
		}
		prev = cur
	}
	if carts == 0 {
		t.Fatal("no shopping cart interactions generated")
	}
	frac := float64(chained) / float64(carts)
	if frac < 0.4 {
		t.Errorf("checkout chain rate = %v, want ≥0.4", frac)
	}
}

func TestTruncate(t *testing.T) {
	s := Concat(
		Steady(Browsing(), 50, 300),
		Steady(Ordering(), 80, 300),
	)
	cut := s.Truncate(450)
	if err := cut.Validate(); err != nil {
		t.Fatal(err)
	}
	if cut.Duration() != 450 {
		t.Errorf("Duration = %v, want 450", cut.Duration())
	}
	if len(cut.Phases) != 2 || cut.Phases[1].Duration != 150 {
		t.Errorf("Truncate split = %+v", cut.Phases)
	}
	if got := s.Truncate(1000); got.Duration() != 600 {
		t.Errorf("over-long cut changed duration to %v", got.Duration())
	}
	if got := s.Truncate(0); len(got.Phases) != 0 {
		t.Errorf("zero cut kept %d phases", len(got.Phases))
	}
	// Exact boundary: the straddling phase is dropped entirely.
	if got := s.Truncate(300); len(got.Phases) != 1 || got.Duration() != 300 {
		t.Errorf("boundary cut = %+v", got.Phases)
	}
	if s.Duration() != 600 {
		t.Error("Truncate mutated the original schedule")
	}
}

func TestShiftAt(t *testing.T) {
	s := Schedule{Phases: []Phase{
		{Mix: Browsing(), EBs: 50, Duration: 300, ThinkScale: 1.5},
		{Mix: Browsing(), EBs: 80, Duration: 300},
	}}
	shift := s.ShiftAt(450, Ordering())
	if err := shift.Validate(); err != nil {
		t.Fatal(err)
	}
	if shift.Duration() != 600 {
		t.Errorf("Duration = %v, want 600", shift.Duration())
	}
	if len(shift.Phases) != 3 {
		t.Fatalf("phases = %d, want 3 (straddler split)", len(shift.Phases))
	}
	for i, want := range []struct {
		mix string
		ebs int
		dur float64
	}{
		{"browsing", 50, 300},
		{"browsing", 80, 150},
		{"ordering", 80, 150},
	} {
		p := shift.Phases[i]
		if p.Mix.Name != want.mix || p.EBs != want.ebs || p.Duration != want.dur {
			t.Errorf("phase %d = {%s %d %v}, want %+v", i, p.Mix.Name, p.EBs, p.Duration, want)
		}
	}
	// EB programme and think scaling survive the shift untouched.
	if before, after := s.At(100), shift.At(100); after.ThinkScale != before.ThinkScale {
		t.Errorf("ThinkScale changed: %v -> %v", before.ThinkScale, after.ThinkScale)
	}
	if got := shift.At(500); got.Mix.Name != "ordering" || got.EBs != 80 {
		t.Errorf("At(500) = %+v, want ordering at 80 EBs", got)
	}

	whole := s.ShiftAt(0, Ordering())
	for i, p := range whole.Phases {
		if p.Mix.Name != "ordering" {
			t.Errorf("ShiftAt(0) phase %d still %s", i, p.Mix.Name)
		}
	}
	if got := s.ShiftAt(600, Ordering()); len(got.Phases) != 2 || got.Phases[1].Mix.Name != "browsing" {
		t.Errorf("shift beyond the end altered the schedule: %+v", got.Phases)
	}
	// Shift on an exact phase boundary must not mint a zero-length phase.
	exact := s.ShiftAt(300, Ordering())
	if err := exact.Validate(); err != nil {
		t.Fatalf("boundary shift invalid: %v", err)
	}
	if len(exact.Phases) != 2 || exact.Phases[1].Mix.Name != "ordering" {
		t.Errorf("boundary shift = %+v", exact.Phases)
	}
}
