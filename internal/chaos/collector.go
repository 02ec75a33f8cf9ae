package chaos

import (
	"fmt"

	"hpcap/internal/metrics"
	"hpcap/internal/server"
)

// FlakyCollector wraps a metrics.Collector with deterministic read
// failures: while a KindStall or KindOutage fault covers the collector's
// tier, TryCollectTo returns an error instead of a vector. It implements
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
	reads []readFault
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

// TryCollectTo reads the underlying collector into dst, failing
// deterministically while a stall or outage fault covers the snapshot
// time.
func (f *FlakyCollector) TryCollectTo(dst []float64, s server.Snapshot, dt float64) ([]float64, error) {
	for i := range f.reads {
		if f.reads[i].active(s.Time, f.Tier()) {
			return nil, f.reads[i].err
		}
	}
	return f.Collector.CollectTo(dst, s, dt), nil
}
