// Package pi implements the paper's Productivity Index (§II.A): the ratio
// of yield to cost, PI = Yield/Cost, used as the quantitative indicator of
// a tier's healthiness. Yield and cost are hardware counter metrics (e.g.
// IPC as yield, L2 miss rate or stall cycles as cost); the PI reference for
// a tier is chosen by the correlation measure of Eq. 2 — the candidate
// whose PI series correlates most strongly with application-level
// throughput is taken as the measure of the tier's capacity.
//
// The package also provides the offline overload labeling used to build
// training sets: a window is labeled overloaded from application-level
// health alone (response time against the SLA and completion deficit), so
// low-level metrics never participate in their own ground truth.
package pi

import (
	"errors"
	"fmt"
	"math"

	"hpcap/internal/metrics"
	"hpcap/internal/stats"
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

// Labeler produces the offline overload ground truth from application-level
// health, as in the paper's stress-testing classification.
type Labeler struct {
	// RTThreshold is the SLA bound on the window's mean response time in
	// seconds; zero selects 1.0 s (TPC-W interactions answer in tens of
	// milliseconds on a healthy site).
	RTThreshold float64
	// DeficitRatio flags a window whose arrival rate exceeds completed
	// throughput by this factor while the site is non-idle; zero selects
	// 1.3.
	DeficitRatio float64
}

// Label returns 1 (overload) or 0 (underload) for one aggregated window.
func (l Labeler) Label(s metrics.Sample) int {
	rt := l.RTThreshold
	if rt <= 0 {
		rt = 1.0
	}
	deficit := l.DeficitRatio
	if deficit <= 0 {
		deficit = 1.3
	}
	if s.MeanRT > rt {
		return 1
	}
	// Completions starved while traffic arrives: the backlog is growing
	// even though finished requests (if any) were fast.
	if s.ArrivalRate > 1 && s.ArrivalRate > deficit*math.Max(s.Throughput, 0.1) {
		return 1
	}
	return 0
}
