package experiment

import (
	"fmt"
	"math"
	"strings"

	"hpcap/internal/fuse"
	"hpcap/internal/registry"
	"hpcap/internal/serve"
	"hpcap/internal/server"
)

// FusionReplay is the result of the counter-fusion ablation: the same
// recorded browsing trace, corrupted by a scrape-level noise storm (NaN
// counter components, frozen collectors, clock skew), replayed through
// the serving pipeline twice — fusion off and fusion on — against a
// fault-free baseline of the identical trace. Fusion must win on both
// axes: the windowed vector error against the baseline (imputation
// recovers what the NaN-drop path loses) and the drift detectors' false
// fires (low-confidence flagging keeps frozen-but-finite windows out of
// the lifecycle, where the raw path feeds them in as clean evidence).
// The transcript is a pure function of the lab seed, byte-identical for
// any training worker count, shard count, and for network (capagent
// wire) versus direct ingest.
type FusionReplay struct {
	// Log is the golden-pinned transcript.
	Log string
	// BaselineWindows is the fault-free run's decision count; RawWindows
	// and FusedWindows the corrupted runs' (the raw path drops the
	// all-NaN windows, fusion decides them).
	BaselineWindows, RawWindows, FusedWindows int
	// RawErr and FusedErr are the mean windowed vector errors against
	// the fault-free baseline (missing windows count as total loss).
	RawErr, FusedErr float64
	// RawDrift and FusedDrift count drift detections recorded against
	// the site; every one is a false fire (the workload never changes).
	RawDrift, FusedDrift uint64
	// BaselineDrift must stay 0: the detector thresholds are tuned so a
	// clean run never fires, making every Raw fire attributable to the
	// storm alone.
	BaselineDrift uint64
	// LowConfidence counts the fused run's windows flagged below the
	// confidence floor; RawGuarded/FusedGuarded the decisions the
	// lifecycle guard refused to learn from.
	LowConfidence            uint64
	RawGuarded, FusedGuarded uint64
}

// fusionStorm corrupts a copy of the recorded trace at scrape level —
// the faults a fusion stage can see through, as opposed to the transport
// faults chaosStorm scripts. Window seq covers sample indices
// [W·(seq-1), W·seq):
//
//	w8      four seconds lose the app tier's first counter to NaN
//	w9–w14  both collectors freeze, replaying w8's last clean scrape
//	        with live timestamps (finite, plausible, and wrong)
//	w15     the scrape clock skews +0.3s, displacing each window's
//	        boundary sample (equal damage with fusion on or off)
//	w16     the app tier's instr_rate and l2_miss_rate are NaN all window
//	w17     the db tier's ipc and l2_ref_rate are NaN all window
func fusionStorm(clean stream, w int) stream {
	s := append(stream(nil), clean...)
	// idx(seq) is the first sample index of window seq.
	idx := func(seq int) int { return w * (seq - 1) }
	// span applies f to every sample index of windows from..to-1.
	span := func(from, to int, f func(i int)) {
		for i := idx(from); i < idx(to) && i < len(s); i++ {
			f(i)
		}
	}
	corrupt := func(tier server.TierID, i int, comps ...int) {
		v := append([]float64(nil), s[i].Vecs[tier]...)
		for _, c := range comps {
			v[c] = math.NaN()
		}
		s[i].Vecs[tier] = v
	}
	// w8: a sparse NaN burst, under the staleness budget.
	for _, off := range []int{3, 10, 17, 24} {
		corrupt(server.TierApp, idx(8)+off, 0)
	}
	// w9–w14: frozen collectors. The replayed scrape is w8's last second,
	// which the burst above left clean.
	span(9, 15, func(i int) { s[i].Vecs = s[idx(9)-1].Vecs })
	// w15: clock skew on the whole scrape stream.
	span(15, 16, func(i int) { s[i].Time += 0.3 })
	// w16/w17: a counter pair lost for a full window on each tier.
	span(16, 17, func(i int) { corrupt(server.TierApp, i, 0, 7) })
	span(17, 18, func(i int) { corrupt(server.TierDB, i, 2, 6) })
	return s
}

// fusionWindowedErr scores a corrupted run against the baseline: the
// mean over every baseline-decided window of the window's vector error —
// the mean over tiers and counters of |v−b| / (1+|b|) — with a window the
// run failed to decide counting as total loss (error 1).
func fusionWindowedErr(run, baseline []serve.Decision) float64 {
	bySeq := make(map[int64]*serve.Decision, len(run))
	for i := range run {
		bySeq[run[i].Seq] = &run[i]
	}
	var sum float64
	for _, b := range baseline {
		d, ok := bySeq[b.Seq]
		if !ok {
			sum++
			continue
		}
		var werr float64
		n := 0
		for tier := range d.Vectors {
			for k, v := range d.Vectors[tier] {
				werr += math.Abs(v-b.Vectors[tier][k]) / (1 + math.Abs(b.Vectors[tier][k]))
				n++
			}
		}
		if n > 0 {
			sum += werr / float64(n)
		}
	}
	if len(baseline) == 0 {
		return 0
	}
	return sum / float64(len(baseline))
}

// runFusionReplay declares the fusion scenario: the browsing cycle served
// three times — clean, storm-corrupted with fusion off, and corrupted with
// fusion on — each through its own pipeline and guarded lifecycle. The
// lifecycle is the same for every section: the replay-tight thresholds
// with a more sensitive Page–Hinkley test, tuned so that a clean run never
// fires and every raw-run fire is a storm artifact, and retraining
// structurally impossible (more history demanded than the trace has
// windows).
func (l *Lab) runFusionReplay(workers int, f front) (*FusionReplay, error) {
	r, err := l.newReplay(workers, f)
	if err != nil {
		return nil, err
	}
	tr, clean, err := r.record(chaosSchedule(r.wb, l.Scale), fusionReplaySeed)
	if err != nil {
		return nil, err
	}
	lc := registry.Config{Drift: replayDrift, MinTrainWindows: 48}
	lc.Drift.PHDelta, lc.Drift.PHLambda = 0.01, 1.5

	var log strings.Builder
	fmt.Fprintln(&log, "storm nan w8 app[0]x4; stuck w9-w14; skew w15 +0.3s; nan w16 app[0,7]; nan w17 db[2,6]")
	storm := fusionStorm(clean, l.Scale.Window)
	fcfg := fuse.DefaultConfig()
	sections := []struct {
		name string
		st   stream
		fuse *fuse.Config
	}{{"baseline", clean, nil}, {"raw", storm, nil}, {"fused", storm, &fcfg}}
	// A section transcribes its decisions and ladder transitions in
	// publication order (a decision first, then the transitions it
	// caused), then the lifecycle's events, then its counters.
	outs := make([]*served, len(sections))
	for i, sec := range sections {
		var lines, events strings.Builder
		out, err := r.run(tr, sec.st, pass{
			cfg: serve.Config{
				Fuse: sec.fuse,
				OnDecision: func(d serve.Decision) {
					w := tr.Windows[d.Seq-1]
					fmt.Fprintf(&lines, "window seq=%d predicted=%t truth=%t degraded=%t missing=%d conf=%.3f lowconf=%t\n",
						d.Seq, d.Prediction.Overload, w.Overload == 1, d.Degraded, d.Missing, d.Confidence, d.LowConfidence)
				},
				OnHealth: func(ev serve.HealthEvent) {
					fmt.Fprintf(&lines, "  health %s->%s seq=%d\n", ev.From, ev.To, ev.Seq)
				},
			},
			lc:     lc,
			events: &events,
		})
		if err != nil {
			return nil, err
		}
		s := out.stats
		fmt.Fprintf(&log, "--- %s ---\n%s%s", sec.name, lines.String(), events.String())
		fmt.Fprintf(&log, "%s decided=%d degraded=%d dropped=%d lowconf=%d fused=%d imputed=%d gated=%d skipped_nan=%d skipped_late=%d resets=%d drift=%d guarded=%d\n",
			sec.name, s.WindowsDecided, s.WindowsDegraded, s.WindowsDropped, s.WindowsLowConfidence,
			s.SamplesFused, s.FuseImputed, s.FuseGated, s.SamplesBadValue, s.SamplesLate,
			s.SessionResets, s.DriftSignals, out.guarded)
		outs[i] = out
	}
	base, raw, fused := outs[0], outs[1], outs[2]

	res := &FusionReplay{
		BaselineWindows: len(base.decisions),
		RawWindows:      len(raw.decisions),
		FusedWindows:    len(fused.decisions),
		RawErr:          fusionWindowedErr(raw.decisions, base.decisions),
		FusedErr:        fusionWindowedErr(fused.decisions, base.decisions),
		RawDrift:        raw.stats.DriftSignals,
		FusedDrift:      fused.stats.DriftSignals,
		BaselineDrift:   base.stats.DriftSignals,
		LowConfidence:   fused.stats.WindowsLowConfidence,
		RawGuarded:      raw.guarded,
		FusedGuarded:    fused.guarded,
	}
	fmt.Fprintf(&log, "error raw=%.6f fused=%.6f\n", res.RawErr, res.FusedErr)
	fmt.Fprintf(&log, "drift baseline=%d raw=%d fused=%d lowconf=%d\n",
		res.BaselineDrift, res.RawDrift, res.FusedDrift, res.LowConfidence)
	fmt.Fprintf(&log, "replay baseline=%d raw=%d fused=%d guarded raw=%d fused=%d\n",
		res.BaselineWindows, res.RawWindows, res.FusedWindows, res.RawGuarded, res.FusedGuarded)
	res.Log = log.String()
	return res, nil
}
