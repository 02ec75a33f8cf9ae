package pi

import (
	"math"

	"hpcap/internal/metrics"
	"hpcap/internal/server"
	"hpcap/internal/tpcw"
)

// This file freezes the two ways a window of 1-second testbed snapshots
// used to become its ground truth, before both moved onto one
// accumulator: the trace generator's window block (health from the
// metric aggregator, utilization and bottleneck from its own busy sums)
// and the serving daemon's truth tracker. Both are kept verbatim, with
// only their types localised, as the references the accumulator is held
// to bit for bit. Never regenerate them.

// refLabel is the labeler's rule at its default thresholds: a 1.0 s SLA
// on the mean response time and a 1.3 completion deficit.
func refLabel(s metrics.Sample) int {
	var l struct{ RTThreshold, DeficitRatio float64 }
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

// refHealth is the application-health half of the metric aggregator's
// push and emit: the trace generator took a window's health from it.
type refHealth struct {
	window int

	count       int
	completions int
	arrivals    int
	rtWeighted  float64
	ebs         int
	lastTime    float64
}

func (a *refHealth) push(s server.Snapshot, dt float64) (metrics.Sample, bool) {
	a.count++
	a.completions += s.Completions
	a.arrivals += s.Arrivals
	a.rtWeighted += s.MeanRT * float64(s.Completions)
	a.ebs = s.ActiveEBs
	a.lastTime = s.Time

	if a.count < a.window {
		return metrics.Sample{}, false
	}
	out := metrics.Sample{
		Time:        a.lastTime,
		Throughput:  float64(a.completions) / (float64(a.window) * dt),
		ArrivalRate: float64(a.arrivals) / (float64(a.window) * dt),
		ActiveEBs:   a.ebs,
	}
	if a.completions > 0 {
		out.MeanRT = a.rtWeighted / float64(a.completions)
	}
	a.count, a.completions, a.arrivals = 0, 0, 0
	a.rtWeighted = 0
	return out, true
}

// refGenWindow is the trace generator's window, ground-truth fields only.
type refGenWindow struct {
	Time        float64
	Overload    int
	Bottleneck  server.TierID
	Throughput  float64
	ArrivalRate float64
	MeanRT      float64
	Util        [server.NumTiers]float64
	FgUtil      [server.NumTiers]float64
	EBs         int
	Classes     []float64
}

// refGenerate is the trace generator's per-second loop with the metric
// vectors left out: it returns every window the stream completes.
func refGenerate(snaps []server.Snapshot, window int) []refGenWindow {
	agg := &refHealth{window: window}
	var out []refGenWindow
	var busyAccum [server.NumTiers]float64
	var fgBusyAccum [server.NumTiers]float64
	var classAccum [tpcw.NumInteractions]int
	secInWindow := 0
	for _, snap := range snaps {
		secInWindow++
		for tier := server.TierID(0); tier < server.NumTiers; tier++ {
			busyAccum[tier] += snap.Tiers[tier].BusySeconds
			fgBusyAccum[tier] += snap.Tiers[tier].FgBusySeconds
		}
		for c, n := range snap.ClassArrivals {
			classAccum[c] += n
		}

		var w refGenWindow
		hpcSample, complete := agg.push(snap, 1)
		if !complete {
			continue
		}
		w.Time = hpcSample.Time
		w.Throughput = hpcSample.Throughput
		w.ArrivalRate = hpcSample.ArrivalRate
		w.MeanRT = hpcSample.MeanRT
		w.EBs = hpcSample.ActiveEBs
		for tier := server.TierID(0); tier < server.NumTiers; tier++ {
			w.Util[tier] = busyAccum[tier] / float64(secInWindow)
			w.FgUtil[tier] = fgBusyAccum[tier] / float64(secInWindow)
			busyAccum[tier] = 0
			fgBusyAccum[tier] = 0
		}
		w.Classes = make([]float64, tpcw.NumInteractions)
		for c, n := range classAccum {
			w.Classes[c] = float64(n)
		}
		classAccum = [tpcw.NumInteractions]int{}
		secInWindow = 0
		w.Overload = refLabel(metrics.Sample{
			MeanRT:      w.MeanRT,
			Throughput:  w.Throughput,
			ArrivalRate: w.ArrivalRate,
		})
		w.Bottleneck = refBusierTier(w.FgUtil)
		out = append(out, w)
	}
	return out
}

// refBusierTier returns the tier with the highest request-processing
// utilization — the offline ground truth for bottleneck identification.
func refBusierTier(util [server.NumTiers]float64) server.TierID {
	best := server.TierID(0)
	for t := server.TierID(1); t < server.NumTiers; t++ {
		if util[t] > util[best] {
			best = t
		}
	}
	return best
}

// refTruth is the daemon's per-window truth as the lifecycle manager
// received it.
type refTruth struct {
	Overload    bool
	Bottleneck  server.TierID
	ClassCounts []float64
}

// refTracker is the serving daemon's truth tracker without its
// decision-pairing half.
type refTracker struct {
	window int

	secs        int
	arrivals    int
	completions int
	rtSum       float64
	fgBusy      [server.NumTiers]float64
	classes     [tpcw.NumInteractions]int

	ready []refTruth
}

// observe accumulates one 1-second snapshot and labels the window when it
// completes.
func (t *refTracker) observe(snap server.Snapshot) {
	t.secs++
	t.arrivals += snap.Arrivals
	t.completions += snap.Completions
	t.rtSum += snap.MeanRT * float64(snap.Completions)
	for tier := server.TierID(0); tier < server.NumTiers; tier++ {
		t.fgBusy[tier] += snap.Tiers[tier].FgBusySeconds
	}
	for c, n := range snap.ClassArrivals {
		t.classes[c] += n
	}
	if t.secs < t.window {
		return
	}

	w := float64(t.window)
	var meanRT float64
	if t.completions > 0 {
		meanRT = t.rtSum / float64(t.completions)
	}
	tr := refTruth{
		Overload: refLabel(metrics.Sample{
			MeanRT:      meanRT,
			Throughput:  float64(t.completions) / w,
			ArrivalRate: float64(t.arrivals) / w,
		}) == 1,
		ClassCounts: make([]float64, tpcw.NumInteractions),
	}
	for tier := server.TierID(1); tier < server.NumTiers; tier++ {
		if t.fgBusy[tier] > t.fgBusy[tr.Bottleneck] {
			tr.Bottleneck = tier
		}
	}
	for c, n := range t.classes {
		tr.ClassCounts[c] = float64(n)
	}
	t.ready = append(t.ready, tr)

	t.secs, t.arrivals, t.completions, t.rtSum = 0, 0, 0, 0
	t.fgBusy = [server.NumTiers]float64{}
	t.classes = [tpcw.NumInteractions]int{}
}
