package tpcw

import "hpcap/internal/sim"

// DefaultThinkTime is the mean think time between web interactions of an
// emulated browser, per the TPC-W remote browser emulator specification
// (negative-exponentially distributed, mean 7 seconds).
const DefaultThinkTime = 7.0

// Browser is one emulated browser (EB) of the RBE. It draws its next
// interaction from the active mix and sleeps an exponential think time
// between interactions. The session flow keeps a small amount of state so
// that order-process interactions follow browse interactions more naturally
// than i.i.d. sampling: after adding to the cart, an EB is biased toward
// continuing the checkout chain.
type Browser struct {
	ID        int
	MeanThink float64

	rng *sim.Source
	// sampler draws from mix; it is built (and the mix's weights read) on
	// the first draw, unless SetSampler has supplied a shared one.
	mix     Mix
	sampler *Sampler
	// lastOrder tracks whether the previous interaction was part of the
	// ordering process, to emit short checkout chains.
	lastOrder Interaction
}

// NewBrowser returns an EB with its own deterministic random sub-stream.
// It returns the browser by value, so an owner can hold it in place.
func NewBrowser(id int, mix Mix, rng *sim.Source) Browser {
	return Browser{
		ID:        id,
		MeanThink: DefaultThinkTime,
		rng:       rng,
		mix:       mix,
	}
}

// SetSampler switches the browser to the distribution of a prebuilt
// sampler. Samplers are immutable, so a whole population retargeted to one
// mix shares a single sampler instead of building one per browser.
func (b *Browser) SetSampler(s *Sampler) {
	b.sampler = s
}

// SetThinkScale adjusts the mean think time to scale × the TPC-W default
// (scale ≤ 0 restores the default).
func (b *Browser) SetThinkScale(scale float64) {
	if scale <= 0 {
		scale = 1
	}
	b.MeanThink = DefaultThinkTime * scale
}

// Next returns the browser's next interaction type.
func (b *Browser) Next() Interaction {
	// With 60% probability continue an in-progress checkout chain; this
	// produces the bursty order sequences real sessions exhibit without
	// changing the long-run mix much (chains are short). succ is the
	// natural follow-up of an order-process interaction in the TPC-W
	// purchase flow.
	var succ Interaction
	switch b.lastOrder {
	case ShoppingCart:
		succ = CustomerRegistration
	case CustomerRegistration:
		succ = BuyRequest
	case BuyRequest:
		succ = BuyConfirm
	}
	if succ != 0 && b.rng.Float64() < 0.6 {
		b.lastOrder = succ
		return succ
	}
	if b.sampler == nil {
		b.sampler = b.mix.Sampler()
	}
	next := b.sampler.Sample(b.rng)
	b.lastOrder = next
	return next
}

// Think returns the next think-time duration in seconds.
func (b *Browser) Think() float64 {
	return b.rng.Exp(b.MeanThink)
}
