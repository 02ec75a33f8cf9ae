package server

import (
	"errors"

	"hpcap/internal/tpcw"
)

// AdmissionState is what an admission controller sees when deciding whether
// to accept a new request at the front end.
type AdmissionState struct {
	Now          float64
	WaitQueue    int // requests queued for an app-tier thread
	BoundWorkers int // busy app-tier threads
}

// AdmissionFunc decides whether to admit a request; returning false rejects
// it immediately (the client receives a fast error page). A nil function
// admits everything, which is the paper's uncontrolled testbed.
type AdmissionFunc func(AdmissionState) bool

// Testbed is the paper's simulated two-tier website — a TPC-W remote
// browser emulator in front of an application tier and a database tier —
// as the two-slot view of a DAGTestbed: it simulates nothing itself. Its
// telemetry is the DAG's snapshot folded to the fixed app/db layout the
// metric collectors consume, and a TierID addresses the pools feeding that
// slot. NewTestbed builds it over the degenerate TwoTierTopology, TwoSlot
// over any DAG.
type Testbed struct {
	dag *DAGTestbed
}

// NewTestbed builds the two-tier testbed for the given configuration and
// load schedule.
func NewTestbed(cfg Config, schedule tpcw.Schedule) (*Testbed, error) {
	if errs := cfg.Validate(); len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	dag, err := NewDAGTestbed(TwoTierTopology(cfg), schedule)
	if err != nil {
		return nil, err
	}
	return dag.TwoSlot(), nil
}

// TwoSlot returns the two-slot view of the DAG testbed: the same
// simulation, driven and sampled through the fixed app/db surface.
func (tb *DAGTestbed) TwoSlot() *Testbed { return &Testbed{dag: tb} }

// SetAdmission installs an admission controller. It must be called before
// Start.
func (tb *Testbed) SetAdmission(f AdmissionFunc) { tb.dag.SetAdmission(f) }

// Start arms the load schedule. It must be called exactly once before
// RunInterval.
func (tb *Testbed) Start() error { return tb.dag.Start() }

// AddPeriodicLoad schedules a recurring CPU burst of the given demand
// (speed-1.0 CPU seconds) every period seconds on every machine feeding a
// tier slot — used to model the cost of metric collection daemons (§V.D).
// It must be called before the simulation advances past time zero and runs
// for the whole simulation.
func (tb *Testbed) AddPeriodicLoad(id TierID, period, demand float64) {
	for _, p := range tb.dag.pools {
		if p.cfg.Slot == id {
			tb.dag.AddPeriodicLoad(p.cfg.Name, period, demand)
		}
	}
}

// Snapshot is the testbed-wide telemetry for one sampling interval.
type Snapshot struct {
	Time  float64
	Tiers [NumTiers]TierSnapshot

	// Request-level flows over the interval.
	Arrivals    int
	Completions int
	Rejections  int
	// ClassArrivals breaks Arrivals down by TPC-W interaction type, in
	// canonical order (index Interaction-Home) — the request-class
	// histogram that workload-mix drift detection compares across
	// windows. Rejected requests still count: the mix is a property of
	// the offered load, not of what was admitted.
	ClassArrivals [tpcw.NumInteractions]int
	MeanRT        float64 // mean response time of completed requests, seconds
	MaxRT         float64

	// Gauges.
	InFlight  int
	ActiveEBs int
}

// RunInterval advances the simulation dt seconds and returns the interval's
// telemetry.
func (tb *Testbed) RunInterval(dt float64) Snapshot { return tb.dag.RunIntervalLegacy(dt) }

// Conservation returns lifetime totals for invariant checking: every
// arrival is eventually a completion, a rejection, or still in flight.
func (tb *Testbed) Conservation() (arrivals, completions, rejections, inFlight int) {
	return tb.dag.Conservation()
}
