package chaos

import (
	"fmt"

	"hpcap/internal/metrics"
	"hpcap/internal/server"
)

// FlakyCollector wraps a metrics.Collector with deterministic read
// failures: while a KindStall or KindOutage fault covers the collector's
// tier, TryCollect returns an error instead of a vector. It implements
// metrics.FallibleCollector, so wrapping it in metrics.NewRetryCollector
// exercises the bounded retry-with-backoff path the serving stack uses
// around flaky PMU reads.
//
// Failure is a pure function of the schedule and the snapshot time:
// retries against the same stall either all fail (the fault window still
// covers the snapshot time) or deterministically succeed once it has
// lapsed.
type FlakyCollector struct {
	metrics.Collector
	reads    []readFault
	attempts uint64
}

// readFault is a stall or outage fault with the error a read it fails
// returns, built once when the collector is made.
type readFault struct {
	Fault
	err error
}

// NewFlakyCollector wraps c so reads fail while sched has a stall or
// outage active on c's tier.
func NewFlakyCollector(c metrics.Collector, sched Schedule) *FlakyCollector {
	f := &FlakyCollector{Collector: c}
	for _, fault := range sched.Faults {
		if fault.Kind == KindStall || fault.Kind == KindOutage {
			f.reads = append(f.reads, readFault{fault, fmt.Errorf("chaos: %s read failed: %s", c.Tier(), fault)})
		}
	}
	return f
}

// TryCollect reads the underlying collector, failing deterministically
// while a stall or outage fault covers the snapshot time.
func (f *FlakyCollector) TryCollect(s server.Snapshot, dt float64) ([]float64, error) {
	if err := f.fail(s); err != nil {
		return nil, err
	}
	return f.Collector.Collect(s, dt), nil
}

// TryCollectTo is TryCollect into dst (metrics.FallibleAppendCollector):
// the underlying collector writes into dst when it is a
// metrics.AppendCollector, and its vector is copied there otherwise.
func (f *FlakyCollector) TryCollectTo(dst []float64, s server.Snapshot, dt float64) ([]float64, error) {
	if err := f.fail(s); err != nil {
		return nil, err
	}
	if ac, ok := f.Collector.(metrics.AppendCollector); ok {
		return ac.CollectTo(dst, s, dt), nil
	}
	return append(dst[:0], f.Collector.Collect(s, dt)...), nil
}

// fail counts an attempt and returns the error of the first read fault
// covering the snapshot time, or nil.
func (f *FlakyCollector) fail(s server.Snapshot) error {
	f.attempts++
	for i := range f.reads {
		if f.reads[i].active(s.Time, f.Tier()) {
			return f.reads[i].err
		}
	}
	return nil
}

// Attempts returns how many reads (including failures) were tried.
func (f *FlakyCollector) Attempts() uint64 { return f.attempts }
