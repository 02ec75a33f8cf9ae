package sim

// Pending returns the number of scheduled events not yet executed.
func (e *Engine) Pending() int {
	if e.vacant {
		return len(e.events) - 1
	}
	return len(e.events)
}

// Run executes all pending events, including events scheduled by events, and
// returns when the queue is empty. Simulations with self-perpetuating event
// chains (e.g. periodic samplers) must use RunUntil instead.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Pick returns an index in [0, len(weights)) with probability proportional
// to weights[i]. All-zero or empty weights return 0.
func (s *Source) Pick(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	r := s.rng.Float64() * total
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
