// Package pi implements the paper's Productivity Index (§II.A): the ratio
// of yield to cost, PI = Yield/Cost, used as the quantitative indicator of
// a tier's healthiness. Yield and cost are hardware counter metrics (e.g.
// IPC as yield, L2 miss rate or stall cycles as cost); the PI reference for
// a tier is chosen by the correlation measure of Eq. 2 — the candidate
// whose PI series correlates most strongly with application-level
// throughput is taken as the measure of the tier's capacity.
//
// The package also derives every simulated window's ground truth, in one
// place: Window folds 1-second testbed snapshots into a window's health,
// per-tier utilization and bottleneck tier, and labels it overloaded from
// application-level health alone (response time against the SLA and
// completion deficit), so low-level metrics never participate in their own
// ground truth. Training sets, the experiments, the stress tool and the
// serving daemon's delayed truth all read it.
package pi

import (
	"errors"
	"fmt"
	"math"

	"hpcap/internal/metrics"
	"hpcap/internal/server"
	"hpcap/internal/stats"
	"hpcap/internal/tpcw"
)

// Definition names one productivity-index candidate: yield and cost are
// metric names resolved against a collector's vector.
type Definition struct {
	Name  string
	Yield string
	Cost  string
}

// DefaultCandidates returns the PI candidates the paper considers for
// hardware counter metrics: IPC against the L2 miss rate (the app-tier
// reference under the ordering mix) and IPC against stall cycles (the
// DB-tier reference under the browsing mix), plus close variants.
func DefaultCandidates() []Definition {
	return []Definition{
		{Name: "ipc_per_l2miss", Yield: "hpc_ipc", Cost: "hpc_l2_miss_ratio"},
		{Name: "ipc_per_stall", Yield: "hpc_ipc", Cost: "hpc_stall_frac"},
		{Name: "ipc_per_l2missrate", Yield: "hpc_ipc", Cost: "hpc_l2_mpki"},
		{Name: "instr_per_stall", Yield: "hpc_instr_rate", Cost: "hpc_stall_rate"},
	}
}

// Series computes the PI time series for one definition over a sequence of
// metric samples. A zero cost yields PI 0 for that point (idle window).
func Series(def Definition, names []string, samples []metrics.Sample) ([]float64, error) {
	yi, ci := indexOf(names, def.Yield), indexOf(names, def.Cost)
	if yi < 0 {
		return nil, fmt.Errorf("pi: yield metric %q not found", def.Yield)
	}
	if ci < 0 {
		return nil, fmt.Errorf("pi: cost metric %q not found", def.Cost)
	}
	out := make([]float64, len(samples))
	for i, s := range samples {
		cost := s.Values[ci]
		if cost <= 0 {
			out[i] = 0
			continue
		}
		out[i] = s.Values[yi] / cost
	}
	return out, nil
}

// Selection is the outcome of PI reference selection for one tier.
type Selection struct {
	Definition Definition
	Corr       float64 // |Pearson correlation| with throughput
}

// Select evaluates every candidate's correlation with application
// throughput over the sample window series (Eq. 2) and returns the
// candidate with the strongest absolute correlation.
func Select(candidates []Definition, names []string, samples []metrics.Sample) (Selection, error) {
	if len(candidates) == 0 {
		return Selection{}, errors.New("pi: no candidates")
	}
	if len(samples) < 3 {
		return Selection{}, errors.New("pi: need at least 3 samples to correlate")
	}
	thr := make([]float64, len(samples))
	for i, s := range samples {
		thr[i] = s.Throughput
	}
	best := Selection{Corr: -1}
	for _, cand := range candidates {
		series, err := Series(cand, names, samples)
		if err != nil {
			return Selection{}, err
		}
		r, err := stats.Correlation(series, thr)
		if err != nil {
			return Selection{}, err
		}
		if a := math.Abs(r); a > best.Corr {
			best = Selection{Definition: cand, Corr: a}
		}
	}
	return best, nil
}

func indexOf(names []string, name string) int {
	for i, n := range names {
		if n == name {
			return i
		}
	}
	return -1
}

// The labeler's thresholds. A TPC-W interaction answers in tens of
// milliseconds on a healthy site, so a window whose mean response time
// passes slaRT is overloaded; so is a non-idle window whose arrivals
// outrun its completions by deficitRatio.
const (
	slaRT        = 1.0 // seconds
	deficitRatio = 1.3
)

// Labeler produces the offline overload ground truth from application-level
// health, as in the paper's stress-testing classification.
type Labeler struct{}

// Label returns 1 (overload) or 0 (underload) for one aggregated window.
func (Labeler) Label(s metrics.Sample) int {
	if s.MeanRT > slaRT {
		return 1
	}
	// Completions starved while traffic arrives: the backlog is growing
	// even though finished requests (if any) were fast.
	if s.ArrivalRate > 1 && s.ArrivalRate > deficitRatio*math.Max(s.Throughput, 0.1) {
		return 1
	}
	return 0
}

// Truth is one window's application-level ground truth: the operational
// quantities of the window (rates are per second over its span), the
// per-tier utilization, the bottleneck tier and the overload label.
type Truth struct {
	Time        float64 // window end: the last snapshot's time
	Throughput  float64 // completed requests per second
	ArrivalRate float64 // arriving requests per second
	MeanRT      float64 // completion-weighted mean response time, seconds
	ActiveEBs   int     // emulated browsers at the window's end
	// Util is each tier's mean busy fraction, idle-priority housekeeping
	// included.
	Util [server.NumTiers]float64
	// Bottleneck is the tier with the most request-processing (foreground)
	// busy time; the first tier wins ties.
	Bottleneck server.TierID
	// Classes is the window's request arrivals by TPC-W interaction type
	// (length tpcw.NumInteractions).
	Classes []float64
	// Overload is the Labeler's verdict on the window's health.
	Overload int
}

// Window folds 1-second testbed snapshots into the ground truth of
// fixed-length windows. It is the one place a simulated window's health,
// overload label and bottleneck are derived.
type Window struct {
	seconds int

	secs        int
	arrivals    int
	completions int
	rtSum       float64
	busy        [server.NumTiers]float64
	fgBusy      [server.NumTiers]float64
	classes     [tpcw.NumInteractions]int
}

// NewWindow returns an accumulator closing one window every seconds
// snapshots. seconds must be positive.
func NewWindow(seconds int) (*Window, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("pi: window must be positive, got %d", seconds)
	}
	return &Window{seconds: seconds}, nil
}

// Add folds one 1-second snapshot in. When the window fills, it returns
// the window's Truth and true, and resets.
func (w *Window) Add(s server.Snapshot) (Truth, bool) {
	w.secs++
	w.arrivals += s.Arrivals
	w.completions += s.Completions
	w.rtSum += s.MeanRT * float64(s.Completions)
	for tier := range w.busy {
		w.busy[tier] += s.Tiers[tier].BusySeconds
		w.fgBusy[tier] += s.Tiers[tier].FgBusySeconds
	}
	for c, n := range s.ClassArrivals {
		w.classes[c] += n
	}
	if w.secs < w.seconds {
		return Truth{}, false
	}

	span := float64(w.secs)
	tr := Truth{
		Time:        s.Time,
		Throughput:  float64(w.completions) / span,
		ArrivalRate: float64(w.arrivals) / span,
		ActiveEBs:   s.ActiveEBs,
		Classes:     make([]float64, tpcw.NumInteractions),
	}
	if w.completions > 0 {
		tr.MeanRT = w.rtSum / float64(w.completions)
	}
	for tier := range w.busy {
		tr.Util[tier] = w.busy[tier] / span
		if w.fgBusy[tier] > w.fgBusy[tr.Bottleneck] {
			tr.Bottleneck = server.TierID(tier)
		}
	}
	for c, n := range w.classes {
		tr.Classes[c] = float64(n)
	}
	tr.Overload = Labeler{}.Label(metrics.Sample{
		MeanRT:      tr.MeanRT,
		Throughput:  tr.Throughput,
		ArrivalRate: tr.ArrivalRate,
	})
	*w = Window{seconds: w.seconds}
	return tr, true
}
