package tpcw

import (
	"math"
	"testing"
	"testing/quick"

	"hpcap/internal/sim"
)

func TestInteractionCount(t *testing.T) {
	all := Interactions()
	if len(all) != NumInteractions {
		t.Fatalf("Interactions() returned %d types, want %d", len(all), NumInteractions)
	}
	seen := map[Interaction]bool{}
	for _, i := range all {
		if !i.Valid() {
			t.Errorf("%v not valid", i)
		}
		if seen[i] {
			t.Errorf("%v duplicated", i)
		}
		seen[i] = true
	}
}

func TestInteractionClassification(t *testing.T) {
	// TPC-W classifies 6 interactions as Browse and 8 as Order.
	var browse, order int
	for _, i := range Interactions() {
		if isOrder(i) {
			order++
		} else {
			browse++
		}
	}
	if browse != 6 || order != 8 {
		t.Errorf("browse=%d order=%d, want 6 and 8", browse, order)
	}
}

func TestInteractionString(t *testing.T) {
	if Home.String() != "Home" {
		t.Errorf("Home.String() = %q", Home.String())
	}
	if got := Interaction(99).String(); got != "Interaction(99)" {
		t.Errorf("invalid String() = %q", got)
	}
	if Interaction(0).Valid() || Interaction(15).Valid() {
		t.Error("out-of-range interactions reported valid")
	}
}

func TestDefaultProfilesCoverAllInteractions(t *testing.T) {
	profiles := DefaultProfiles()
	for _, i := range Interactions() {
		p, ok := profiles[i]
		if !ok {
			t.Fatalf("no profile for %v", i)
		}
		if p.AppDemand <= 0 || p.DBDemand <= 0 {
			t.Errorf("%v has non-positive demand: %+v", i, p)
		}
		if p.DBWorkMB <= 0 || p.AppWorkMB <= 0 {
			t.Errorf("%v has non-positive working set: %+v", i, p)
		}
	}
}

func TestProfilesTierAffinity(t *testing.T) {
	// The weighted per-request demand under browsing must be DB-dominated
	// and under ordering app-dominated — this is what makes the bottleneck
	// land on different tiers for the two mixes.
	profiles := DefaultProfiles()
	demand := func(m Mix) (app, db float64) {
		for i, w := range m.Weights {
			app += w * profiles[i].AppDemand
			db += w * profiles[i].DBDemand
		}
		return app, db
	}
	appB, dbB := demand(Browsing())
	if dbB <= appB*1.5 {
		t.Errorf("browsing mix not DB-dominated: app=%v db=%v", appB, dbB)
	}
	appO, dbO := demand(Ordering())
	if appO <= dbO {
		t.Errorf("ordering mix not app-dominated: app=%v db=%v", appO, dbO)
	}
}

// orderFraction is the mix's total probability mass on Order-class
// interactions, accumulated in canonical interaction order.
func orderFraction(m Mix) float64 {
	var f float64
	for _, t := range Interactions() {
		if isOrder(t) {
			f += m.Weights[t]
		}
	}
	return f
}

func TestMixOrderFractions(t *testing.T) {
	tests := []struct {
		mix  Mix
		want float64
	}{
		{Browsing(), 0.05},
		{Shopping(), 0.20},
		{Ordering(), 0.50},
	}
	for _, tt := range tests {
		if got := orderFraction(tt.mix); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("%s OrderFraction = %v, want %v", tt.mix.Name, got, tt.want)
		}
		if err := tt.mix.Validate(); err != nil {
			t.Errorf("%s Validate: %v", tt.mix.Name, err)
		}
	}
}

func TestUnknownMixValidAndDistinct(t *testing.T) {
	u := Unknown()
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	f := orderFraction(u)
	if f <= 0.05 || f >= 0.50 {
		t.Errorf("unknown mix order fraction = %v, want strictly between the training extremes", f)
	}
	// The within-class shape must differ from a plain interpolation.
	plain := NewMix("plain", f)
	diff := 0.0
	for i := range u.Weights {
		diff += math.Abs(u.Weights[i] - plain.Weights[i])
	}
	if diff < 0.01 {
		t.Errorf("unknown mix too close to plain interpolation (L1 diff %v)", diff)
	}
}

func TestNewMixClamping(t *testing.T) {
	if f := orderFraction(NewMix("x", -0.5)); f != 0 {
		t.Errorf("orderFraction clamped low = %v, want 0", f)
	}
	if f := orderFraction(NewMix("x", 1.5)); math.Abs(f-1) > 1e-9 {
		t.Errorf("orderFraction clamped high = %v, want 1", f)
	}
}

func TestMixValidateRejectsBadMixes(t *testing.T) {
	bad := Mix{Name: "bad", Weights: map[Interaction]float64{Home: 0.5}}
	if err := bad.Validate(); err == nil {
		t.Error("sum != 1 not rejected")
	}
	bad2 := Mix{Name: "bad2", Weights: map[Interaction]float64{Interaction(99): 1.0}}
	if err := bad2.Validate(); err == nil {
		t.Error("invalid interaction not rejected")
	}
	bad3 := Mix{Name: "bad3", Weights: map[Interaction]float64{Home: 1.5, ProductDetail: -0.5}}
	if err := bad3.Validate(); err == nil {
		t.Error("negative weight not rejected")
	}
}

func TestSampleMatchesMix(t *testing.T) {
	rng := sim.NewSource(99)
	mix := Ordering()
	sampler := mix.Sampler()
	const n = 200000
	var orders int
	for i := 0; i < n; i++ {
		if isOrder(sampler.Sample(rng)) {
			orders++
		}
	}
	got := float64(orders) / n
	if math.Abs(got-0.5) > 0.01 {
		t.Errorf("sampled order fraction = %v, want ≈0.5", got)
	}
}

// pick is the reference weighted draw: an index in [0, len(weights)) with
// probability proportional to weights[i], from one Float64 of s. All-zero
// or empty weights return 0.
func pick(s *sim.Source, weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	r := s.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if r < w {
			return i
		}
		r -= w
	}
	return len(weights) - 1
}

// TestSamplerMatchesPick: a Sampler is the reference pick over the canonical
// weight table with the total cached — the same interaction for the same
// draw, and the same number of draws, on proper mixes and on the
// degenerate tables pick tolerates (empty, all zero, negative, NaN, Inf).
func TestSamplerMatchesPick(t *testing.T) {
	mixes := []Mix{Browsing(), Shopping(), Ordering(), Unknown(), FlashVariant(Browsing()),
		{Name: "empty"},
		{Name: "zeros", Weights: map[Interaction]float64{Home: 0, BuyConfirm: 0}},
		{Name: "negative", Weights: map[Interaction]float64{Home: -1, SearchRequest: 2, AdminConfirm: 1}},
		{Name: "nan", Weights: map[Interaction]float64{NewProducts: math.NaN(), BuyRequest: 1, OrderDisplay: 3}},
		{Name: "inf", Weights: map[Interaction]float64{Home: 1, ShoppingCart: math.Inf(1)}},
	}
	for _, m := range mixes {
		types := Interactions()
		weights := make([]float64, len(types))
		for i, it := range types {
			weights[i] = m.Weights[it]
		}
		s := m.Sampler()
		a, b := sim.NewSource(7), sim.NewSource(7)
		for i := 0; i < 5000; i++ {
			if got, want := s.Sample(a), types[pick(b, weights)]; got != want {
				t.Fatalf("mix %s draw %d: Sampler gives %v, pick %v", m.Name, i, got, want)
			}
		}
		if a.Float64() != b.Float64() {
			t.Errorf("mix %s: Sampler and pick consumed different numbers of draws", m.Name)
		}
	}
}

// TestBrowserSharedSampler: browsers handed one shared sampler draw what
// browsers given the mix itself draw.
func TestBrowserSharedSampler(t *testing.T) {
	shared := Ordering().Sampler()
	for seed := int64(1); seed <= 3; seed++ {
		own := NewBrowser(1, Browsing(), sim.NewSource(seed))
		own.SetMix(Ordering())
		lent := NewBrowser(1, Browsing(), sim.NewSource(seed))
		lent.SetSampler(shared)
		for i := 0; i < 2000; i++ {
			if a, b := own.Next(), lent.Next(); a != b {
				t.Fatalf("seed %d draw %d: SetMix browser issued %v, SetSampler browser %v", seed, i, a, b)
			}
		}
	}
}

// Property: NewMix always yields a valid distribution.
func TestNewMixValidProperty(t *testing.T) {
	f := func(frac float64) bool {
		m := NewMix("p", math.Mod(math.Abs(frac), 1))
		return m.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
