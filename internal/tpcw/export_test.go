package tpcw

// SetMix switches the browser to a new traffic mix, building its own
// sampler on the next draw: the reference SetSampler is checked against.
func (b *Browser) SetMix(mix Mix) {
	b.mix, b.sampler = mix, nil
}

// isOrder reports whether the interaction is Order-class: one that plays
// an explicit role in the ordering process per the TPC-W classification.
func isOrder(i Interaction) bool {
	_, ok := orderShape[i]
	return ok
}
