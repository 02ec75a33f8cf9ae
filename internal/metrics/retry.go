package metrics

import (
	"hpcap/internal/chunk"
	"hpcap/internal/server"
)

// FallibleCollector is a Collector whose reads can fail transiently — a
// PMU driver returning EAGAIN, a /proc scrape racing a reboot, a metrics
// transport timing out. TryCollectTo writes the vector into dst
// (reallocating only when dst is too small) or returns an error;
// CollectTo (from the embedded Collector contract) must still succeed by
// whatever fallback the implementation chooses.
type FallibleCollector interface {
	Collector
	TryCollectTo(dst []float64, s server.Snapshot, dt float64) ([]float64, error)
}

// RetryCollector hardens a FallibleCollector into a plain Collector with
// bounded retry: each Collect tries the source up to 1+MaxRetries times
// back to back — virtual time does not pass during a simulated read — and
// falls back to the last good vector (initially zeros) when every attempt
// fails. The serving layer's staleness budget then decides whether the
// stale vector still supports a degraded decision — the collector never
// blocks the sampling loop and never emits NaN.
type RetryCollector struct {
	src FallibleCollector
	// MaxRetries bounds extra attempts per read (total attempts are
	// 1+MaxRetries).
	MaxRetries int

	last     []float64
	vecs     chunk.Of[float64] // Collect's vectors
	retries  uint64
	failures uint64
}

// NewRetryCollector wraps src with up to maxRetries retries per read.
// Negative maxRetries selects 0 (a single attempt, fallback on failure).
func NewRetryCollector(src FallibleCollector, maxRetries int) *RetryCollector {
	if maxRetries < 0 {
		maxRetries = 0
	}
	return &RetryCollector{src: src, MaxRetries: maxRetries}
}

// Tier returns the wrapped collector's tier.
func (r *RetryCollector) Tier() server.TierID { return r.src.Tier() }

// Names returns the wrapped collector's metric names.
func (r *RetryCollector) Names() []string { return r.src.Names() }

// Collect reads the source with bounded retry into a fresh vector the
// caller owns for good, carved from the collector's chunk (see package
// chunk). On total failure the vector holds the last good values (zeros
// before the first success), so the aggregation window closes on a
// stale-but-finite mean instead of stalling or going NaN, and a caller
// that keeps the vector does not see the next good read overwrite it.
func (r *RetryCollector) Collect(s server.Snapshot, dt float64) []float64 {
	return r.CollectTo(r.vecs.Carve(len(r.src.Names())), s, dt)
}

// CollectTo is Collect into dst, reallocating only when dst is too small;
// the source writes into dst itself.
func (r *RetryCollector) CollectTo(dst []float64, s server.Snapshot, dt float64) []float64 {
	for attempt := 0; attempt <= r.MaxRetries; attempt++ {
		if attempt > 0 {
			r.retries++
		}
		v, err := r.src.TryCollectTo(dst, s, dt)
		if err == nil {
			r.last = append(r.last[:0], v...)
			return v
		}
	}
	r.failures++
	if r.last == nil {
		return append(dst[:0], make([]float64, len(r.src.Names()))...)
	}
	return append(dst[:0], r.last...)
}

// Retries returns how many extra attempts were made; Failures how many
// reads exhausted every attempt and fell back to the stale vector.
func (r *RetryCollector) Retries() uint64  { return r.retries }
func (r *RetryCollector) Failures() uint64 { return r.failures }
