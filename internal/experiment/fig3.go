package experiment

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"hpcap/internal/pi"
	"hpcap/internal/server"
	"hpcap/internal/stats"
	"hpcap/internal/tpcw"
)

// Fig3Point is one 30-second window of the PI-vs-throughput time series.
type Fig3Point struct {
	Time           float64
	PI             float64 // normalized to the series geometric mean
	Throughput     float64 // normalized likewise
	RawPI          float64
	RawThroughput  float64
	Overloaded     int
	BottleneckTier server.TierID
}

// Fig3Result reproduces the paper's Figure 3: the productivity index of the
// bottleneck tier tracking application-level throughput under an
// ordering-mix drive into overload, both normalized to their geometric
// means.
type Fig3Result struct {
	Workload    string
	Tier        server.TierID
	PIName      string  // selected yield/cost definition
	Corr        float64 // |correlation| of the selected PI with throughput
	Agreement   float64 // correlation of the two normalized series
	LeadWindows int     // windows by which PI leads throughput (cross-correlation argmax)
	Points      []Fig3Point
}

// RunFig3 drives the testbed with the ordering mix (as plotted in the
// paper; the browsing variant works symmetrically on the DB tier), selects
// the PI reference for the bottleneck tier by the Corr measure of Eq. 2,
// and emits the normalized series.
func (l *Lab) RunFig3() (*Fig3Result, error) {
	mix := tpcw.Ordering()
	tier := server.TierApp // ordering saturates the front end
	// The paper drives the testbed into an overloaded state with a
	// monotone load increase; a plain ramp across the knee reproduces
	// that drive.
	w, err := l.Workload(mix)
	if err != nil {
		return nil, err
	}
	// Start near saturation, as the paper's plotted run does: the figure
	// shows the saturated/overloaded regime where both series sag
	// together when contention bites.
	sched := tpcw.Ramp(mix, frac(w.Knee, 0.85), frac(w.Knee, 1.70), 14, l.Scale.StepSec)
	tr, err := l.generate("fig3/"+mix.Name, sched, l.Seed+55, false)
	if err != nil {
		return nil, err
	}
	samples := tr.HPCSamples[tier]
	sel, err := pi.Select(pi.DefaultCandidates(), tr.HPCNames, samples)
	if err != nil {
		return nil, err
	}
	series, err := pi.Series(sel.Definition, tr.HPCNames, samples)
	if err != nil {
		return nil, err
	}

	thr := make([]float64, len(samples))
	for i, s := range samples {
		thr[i] = s.Throughput
	}
	normPI := stats.Normalize(series)
	normThr := stats.Normalize(thr)

	res := &Fig3Result{
		Workload: mix.Name,
		Tier:     tier,
		PIName:   sel.Definition.Name,
		Corr:     sel.Corr,
	}
	agreement, err := stats.Correlation(normPI, normThr)
	if err != nil {
		return nil, err
	}
	res.Agreement = agreement
	res.LeadWindows = leadOf(normPI, normThr, 4)

	for i := range samples {
		res.Points = append(res.Points, Fig3Point{
			Time:           samples[i].Time,
			PI:             normPI[i],
			Throughput:     normThr[i],
			RawPI:          series[i],
			RawThroughput:  thr[i],
			Overloaded:     tr.Windows[i].Overload,
			BottleneckTier: tr.Windows[i].Bottleneck,
		})
	}
	return res, nil
}

// leadOf returns the lag (in windows) at which the cross-correlation of a
// against b is maximal, searching lags in [0, maxLag]: a positive value
// means a leads b — the PI responding before the throughput metric, as the
// paper's dotted arrows highlight.
func leadOf(a, b []float64, maxLag int) int {
	best, bestLag := -2.0, 0
	for lag := 0; lag <= maxLag && lag < len(a)-2; lag++ {
		r, err := stats.Correlation(a[:len(a)-lag], b[lag:])
		if err != nil {
			return 0
		}
		if r > best {
			best = r
			bestLag = lag
		}
	}
	return bestLag
}

// String renders the series compactly, one row per window.
func (r *Fig3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 3 — PI vs throughput (%s mix, %s tier)\n", r.Workload, r.Tier)
	fmt.Fprintf(&b, "PI = %s selected with Corr = %.3f; series agreement r = %.3f; PI leads by %d window(s)\n",
		r.PIName, r.Corr, r.Agreement, r.LeadWindows)
	fmt.Fprintf(&b, "%8s %10s %12s %5s\n", "time(s)", "PI(norm)", "thr(norm)", "over")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%8.0f %10.3f %12.3f %5d\n", p.Time, p.PI, p.Throughput, p.Overloaded)
	}
	return b.String()
}

// WriteCSV writes the series as CSV, one row per window, with the raw PI
// and throughput beside the normalized ones.
func (r *Fig3Result) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("time_s,pi_norm,throughput_norm,pi_raw,throughput_raw,overloaded\n")
	for _, p := range r.Points {
		b.WriteString(strings.Join([]string{
			strconv.FormatFloat(p.Time, 'f', 0, 64),
			strconv.FormatFloat(p.PI, 'f', 5, 64),
			strconv.FormatFloat(p.Throughput, 'f', 5, 64),
			strconv.FormatFloat(p.RawPI, 'g', 6, 64),
			strconv.FormatFloat(p.RawThroughput, 'f', 3, 64),
			strconv.Itoa(p.Overloaded),
		}, ","))
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
