package experiment

import (
	"errors"
	"fmt"
	"strings"

	"hpcap/internal/chaos"
	"hpcap/internal/registry"
	"hpcap/internal/serve"
	"hpcap/internal/server"
	"hpcap/internal/tpcw"
)

// ChaosReplay is the result of one end-to-end fault-storm replay: a
// browsing-trained monitor serves a clean browsing trace whose telemetry
// is corrupted mid-run by a scripted chaos.Schedule — NaN bursts, stuck
// counters, clock skew, a whole-tier outage, duplicates, dropouts, and a
// bounded collector stall — then recovers. The transcript freezes every
// decision, every degradation-ladder transition, and the lifecycle
// guard's work; it is a pure function of the lab's seed, bit-identical
// for any training worker count.
type ChaosReplay struct {
	// Log is the golden-pinned transcript.
	Log string
	// Windows and BaselineWindows are the decision counts of the chaos
	// and the fault-free replay of the same recorded trace; the storm
	// drops windows, so Windows < BaselineWindows.
	Windows, BaselineWindows int
	// Injected is how many times the injector touched the stream.
	Injected uint64
	// Transitions counts degradation-ladder moves; the storm must walk
	// the site off healthy and the recovery must walk it back.
	Transitions uint64
	// Guarded is how many degraded decisions the lifecycle refused to
	// learn from.
	Guarded uint64
	// ReconvergeSeq is the first window after which every chaos decision
	// matches the fault-free baseline again (-1 if the runs never
	// re-converge).
	ReconvergeSeq int64
}

// chaosSchedule cycles browsing traffic below and above its knee — long
// enough to cover a lead-in, an eight-window fault storm, and a recovery
// tail.
func chaosSchedule(w Workload, s Scale) tpcw.Schedule {
	fracs := []float64{0.85, 1.25, 0.7, 1.15}
	var phases []tpcw.Phase
	for i := 0; i < 12; i++ {
		phases = append(phases, tpcw.Phase{
			Mix:      w.Mix,
			EBs:      frac(w.Knee, fracs[i%len(fracs)]),
			Duration: s.StepSec,
		})
	}
	return tpcw.Schedule{Phases: phases}
}

// chaosStorm scripts the fault storm against the recorded trace: window
// seq covers sample times [at(seq), at(seq)+W), so each fault lands on
// exactly the windows named here. The storm spans seqs 8–15; everything
// after is recovery.
func chaosStorm(base, w float64) chaos.Schedule {
	at := func(seq int64) float64 { return base + w*float64(seq-1) }
	return chaos.Schedule{Faults: []chaos.Fault{
		{Kind: chaos.KindNaN, Tier: server.TierApp, Start: at(8), Duration: w, P: 0.3},
		{Kind: chaos.KindStuck, Tier: server.TierDB, Start: at(9), Duration: w},
		{Kind: chaos.KindSkew, Tier: chaos.AllTiers, Start: at(10), Duration: w, P: 0.25},
		{Kind: chaos.KindOutage, Tier: chaos.AllTiers, Start: at(11), Duration: w},
		{Kind: chaos.KindDup, Tier: server.TierApp, Start: at(13), Duration: w, P: 0.5},
		{Kind: chaos.KindDrop, Tier: chaos.AllTiers, Start: at(14), Duration: w, P: 0.12},
		{Kind: chaos.KindStall, Tier: server.TierDB, Start: at(15), Duration: w, N: 5},
	}}
}

// runChaosReplay declares the chaos scenario: the browsing cycle, the
// scripted storm as a per-sample injector, and a guarded lifecycle with
// the replay-tight detector thresholds that must not see a single
// fault-corrupted window. The fault-free replay of the same trace is the
// baseline the decisions must re-converge with.
func (l *Lab) runChaosReplay(workers int, f front) (*ChaosReplay, error) {
	r, err := l.newReplay(workers, f)
	if err != nil {
		return nil, err
	}
	tr, st, err := r.record(chaosSchedule(r.wb, l.Scale), chaosReplaySeed)
	if err != nil {
		return nil, err
	}
	baseline, err := r.decide(st)
	if err != nil {
		return nil, err
	}
	storm := chaosStorm(tr.SecTimes[0], float64(l.Scale.Window))
	if errs := storm.Validate(); len(errs) > 0 {
		return nil, fmt.Errorf("experiment: chaos storm: %w", errors.Join(errs...))
	}
	inj := chaos.NewInjector(storm, l.Seed+chaosReplaySeed)

	var log strings.Builder
	fmt.Fprintf(&log, "storm %s\n", storm)
	out, err := r.run(tr, st, pass{
		cfg: serve.Config{OnHealth: func(ev serve.HealthEvent) {
			fmt.Fprintf(&log, "  health %s->%s seq=%d\n", ev.From, ev.To, ev.Seq)
		}},
		inject: inj,
		// More history than the trace has windows: any retrain would be a
		// guard failure, and the transcript would record it.
		lc:     registry.Config{Drift: replayDrift, MinTrainWindows: 48},
		events: &log,
		line: func(d serve.Decision, w *Window) {
			fmt.Fprintf(&log, "window seq=%d predicted=%t truth=%t degraded=%t missing=%d\n",
				d.Seq, d.Prediction.Overload, w.Overload == 1, d.Degraded, d.Missing)
		},
	})
	if err != nil {
		return nil, err
	}

	// Re-convergence: the longest decision suffix that matches the
	// fault-free baseline window for window.
	base := verdicts(baseline)
	reconv := int64(-1)
	for i := len(out.decisions) - 1; i >= 0; i-- {
		d := out.decisions[i]
		if b, ok := base[d.Seq]; !ok || b != d.Prediction.Overload {
			break
		}
		reconv = d.Seq
	}

	stats := out.stats
	fs := inj.Stats()
	res := &ChaosReplay{
		Windows:         len(out.decisions),
		BaselineWindows: len(baseline),
		Injected:        fs.Injected(),
		Transitions:     stats.HealthChanges(),
		Guarded:         out.guarded,
		ReconvergeSeq:   reconv,
	}
	fmt.Fprintf(&log, "faults offered=%d emitted=%d dropped=%d nan=%d stuck=%d stalled=%d dup=%d skew=%d outage=%d\n",
		fs.Offered, fs.Emitted, fs.Dropped, fs.Corrupted, fs.Frozen, fs.Stalled, fs.Duplicated, fs.Skewed, fs.Outaged)
	fmt.Fprintf(&log, "pipeline decided=%d degraded=%d dropped=%d skipped_nan=%d skipped_late=%d skipped_gap=%d resets=%d health=%s transitions=%d\n",
		stats.WindowsDecided, stats.WindowsDegraded, stats.WindowsDropped,
		stats.SamplesBadValue, stats.SamplesLate, stats.SamplesGapReset,
		stats.SessionResets, stats.Health, res.Transitions)
	fmt.Fprintf(&log, "replay windows=%d baseline=%d guarded=%d reconverge_seq=%d\n",
		res.Windows, res.BaselineWindows, res.Guarded, res.ReconvergeSeq)
	res.Log = log.String()
	return res, nil
}
