// Package drift implements online drift detection over the serving
// pipeline's decision stream, closing the gap between the paper's offline
// training and its online premise: synopses are trained per (workload,
// tier), so when the live traffic mix moves away from the training mixes,
// synopsis accuracy decays silently. A Detector watches two independent
// symptoms of that decay:
//
//   - Accuracy: a Page–Hinkley test over the 0/1 error stream of the
//     model's overload verdicts against delayed ground-truth labels. The
//     test accumulates error in excess of the running mean and signals
//     when the excess exceeds a threshold — the standard sequential test
//     for an upward mean shift in a noisy stream.
//   - Mix shift: a Jensen–Shannon divergence test between a reference
//     histogram of request-class frequencies (frozen shortly after
//     start-up or the last model swap) and a sliding recent histogram.
//
// Every detector is pure arithmetic over the observation sequence — no
// clocks, no randomness — so replaying a stream reproduces the signal
// sequence bit-for-bit, which the drift-replay determinism golden
// enforces. Malformed inputs (NaN/Inf components, negative counts) are
// sanitized rather than propagated: a detector never panics and never
// signals because of a corrupt sample, a property the fuzz tests pin
// down.
package drift

import (
	"errors"
	"fmt"

	"hpcap/internal/core"
)

// Kind names a drift symptom.
type Kind int

// The drift symptoms a Detector watches.
const (
	// KindAccuracy is synopsis-accuracy decay against delayed labels.
	KindAccuracy Kind = iota + 1
	// KindMixShift is divergence of the request-class frequency histogram.
	KindMixShift
)

// String names the kind as rendered in events and metrics.
func (k Kind) String() string {
	switch k {
	case KindAccuracy:
		return "accuracy"
	case KindMixShift:
		return "mix-shift"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Observation is one decided window paired with its delayed ground truth —
// what the lifecycle manager can assemble once the application-level
// labels for a window become available.
type Observation struct {
	// Seq is the absolute window index of the decision.
	Seq int64
	// Predicted is the serving model's overload verdict for the window.
	Predicted bool
	// Truth is the delayed application-level ground truth.
	Truth bool
	// ClassCounts is the window's request arrivals by class (any fixed
	// class order; nil disables the mix-shift detector for the window).
	ClassCounts []float64
}

// Signal is one drift detection.
type Signal struct {
	Kind Kind
	// Seq is the window at which the detector fired.
	Seq int64
	// Score is the detector's test statistic at the firing point and
	// Threshold the configured bound it exceeded.
	Score     float64
	Threshold float64
}

// String renders the signal for logs and replay goldens.
func (s Signal) String() string {
	return fmt.Sprintf("%s score=%.4f threshold=%.4f", s.Kind, s.Score, s.Threshold)
}

// Config tunes a Detector. The zero value enables both tests at
// daemon-conservative thresholds; the mix-shift test sees only the
// windows whose observations carry class counts.
type Config struct {
	// PHDelta is the Page–Hinkley drift tolerance: per-window error in
	// excess of the running mean below this magnitude never accumulates.
	// Zero selects 0.01.
	PHDelta float64
	// PHLambda is the Page–Hinkley threshold in cumulative excess errors.
	// Zero selects 25 — about 25 more mistakes than the baseline rate
	// predicts, conservative enough that an i.i.d. error stream stays
	// quiet (the fuzz test's invariant). Negative disables the test.
	PHLambda float64
	// MinWindows is the accuracy test's warm-up: no signal before this
	// many labeled windows. Zero selects 20.
	MinWindows int

	// MixRefWindows is how many initial windows (after start-up or a
	// Reset) build the reference histogram. Zero selects 8.
	MixRefWindows int
	// MixWindow is the sliding recent-histogram width. Zero selects 12.
	MixWindow int
	// MixThreshold is the Jensen–Shannon divergence (natural log, so in
	// [0, ln 2]) above which a window counts as shifted. Zero selects
	// 0.08; negative disables the test.
	MixThreshold float64
	// MixPatience is how many consecutive shifted windows fire the
	// signal. Zero selects 4.
	MixPatience int
}

// DefaultConfig returns the detector's conservative defaults — each
// chosen so an i.i.d. decision stream stays quiet (the fuzz invariant).
func DefaultConfig() Config {
	return Config{
		PHDelta:       0.01,
		PHLambda:      25,
		MinWindows:    20,
		MixRefWindows: 8,
		MixWindow:     12,
		MixThreshold:  0.08,
		MixPatience:   4,
	}
}

func (c Config) withDefaults() Config {
	def := DefaultConfig()
	if c.PHDelta == 0 {
		c.PHDelta = def.PHDelta
	}
	if c.PHLambda == 0 {
		c.PHLambda = def.PHLambda
	}
	if c.MinWindows == 0 {
		c.MinWindows = def.MinWindows
	}
	if c.MixRefWindows == 0 {
		c.MixRefWindows = def.MixRefWindows
	}
	if c.MixWindow == 0 {
		c.MixWindow = def.MixWindow
	}
	if c.MixThreshold == 0 {
		c.MixThreshold = def.MixThreshold
	}
	if c.MixPatience == 0 {
		c.MixPatience = def.MixPatience
	}
	return c
}

// Validate applies defaults first, then returns one error per violated
// constraint, each wrapping core.ErrBadConfig. Negative PHLambda and
// MixThreshold are legal (they disable their tests), so they are never
// reported.
func (c Config) Validate() []error {
	c = c.withDefaults()
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("drift: %w: "+format, append([]any{core.ErrBadConfig}, args...)...))
	}
	if c.PHDelta < 0 {
		bad("PH delta %g, need >= 0", c.PHDelta)
	}
	if c.MinWindows < 0 {
		bad("min windows %d, need >= 0", c.MinWindows)
	}
	if c.MixRefWindows < 1 {
		bad("mix reference windows %d, need >= 1", c.MixRefWindows)
	}
	if c.MixWindow < 1 {
		bad("mix window %d, need >= 1", c.MixWindow)
	}
	if c.MixPatience < 1 {
		bad("mix patience %d, need >= 1", c.MixPatience)
	}
	return errs
}

// Detector aggregates the two drift tests over one decision stream. It
// is not safe for concurrent use; the lifecycle manager serializes each
// site's observations.
type Detector struct {
	cfg Config
	acc *PageHinkley
	mix *mixShift
}

// New builds a detector. The mix-shift test sees only observations
// carrying class counts.
func New(cfg Config) (*Detector, error) {
	if errs := cfg.Validate(); len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	cfg = cfg.withDefaults()
	d := &Detector{cfg: cfg}
	if cfg.PHLambda >= 0 {
		d.acc = NewPageHinkley(cfg.PHDelta, cfg.PHLambda, cfg.MinWindows)
	}
	if cfg.MixThreshold >= 0 {
		d.mix = newMixShift(cfg)
	}
	return d, nil
}

// Observe folds one labeled window into every armed test and returns the
// signals that fired on it (usually none). Signals appear in a fixed
// order: accuracy, then mix shift.
func (d *Detector) Observe(o Observation) []Signal {
	var out []Signal
	if d.acc != nil {
		e := 0.0
		if o.Predicted != o.Truth {
			e = 1.0
		}
		if d.acc.Add(e) {
			out = append(out, Signal{Kind: KindAccuracy, Seq: o.Seq,
				Score: d.acc.Stat(), Threshold: d.cfg.PHLambda})
			d.acc.Reset()
		}
	}
	if d.mix != nil && len(o.ClassCounts) > 0 {
		if fired, jsd := d.mix.observe(o.ClassCounts); fired {
			out = append(out, Signal{Kind: KindMixShift, Seq: o.Seq,
				Score: jsd, Threshold: d.cfg.MixThreshold})
		}
	}
	return out
}

// Reset clears every test's accumulated state — called after a model
// swap, so the new model is judged against a fresh baseline. The mix
// reference is relearned from the post-swap stream.
func (d *Detector) Reset() {
	if d.acc != nil {
		d.acc.Reset()
	}
	if d.mix != nil {
		d.mix.reset()
	}
}
