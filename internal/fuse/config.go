package fuse

import (
	"fmt"
	"math"

	"hpcap/internal/core"
)

// Config tunes a Bank. The defaults are deliberately permissive: the
// gate is a safety net against wildly scaled reads, not a tracking
// filter, so legitimate load-phase steps (which move every counter
// coherently) must pass untouched.
type Config struct {
	// ProcessNoise is the relative per-sample drift the filter expects
	// in the true counter level (standard deviation, as a fraction of
	// the counter's running magnitude). Larger values track regime
	// changes faster and widen the innovation gate. Zero selects 0.25.
	ProcessNoise float64
	// MeasurementNoise is the relative sampling jitter of a single
	// counter read (standard deviation, as a fraction of the counter's
	// running magnitude) — the multiplexing noise BayesPerf models.
	// Zero selects 0.05.
	MeasurementNoise float64
	// GateSigmas is the innovation gate width: a reading further than
	// GateSigmas predicted standard deviations from the filter's
	// one-step prediction is rejected and imputed instead. Zero
	// selects 8 (a wide safety net; see the package comment).
	GateSigmas float64
	// StuckRun is how many consecutive bit-identical readings of a
	// counter that has previously varied mark the counter stuck (a
	// frozen collector replaying its last value). Zero selects 4;
	// counters that never change (structurally constant metrics) are
	// never flagged.
	StuckRun int
	// Warmup is how many accepted readings a counter needs before the
	// innovation gate arms; stuck detection is always armed. Zero
	// selects 5; negative selects 0 (gate armed from the first read).
	Warmup int
	// ConfidenceFloor classifies windows: a decided window whose mean
	// per-counter confidence falls below the floor is flagged
	// LowConfidence, walks the serving degradation ladder, and is
	// refused by the registry's retrain guard. Zero selects 0.7;
	// negative selects 0 (low-confidence flagging disabled).
	ConfidenceFloor float64
}

// DefaultConfig returns the canonical fusion settings.
func DefaultConfig() Config {
	return Config{
		ProcessNoise:     0.25,
		MeasurementNoise: 0.05,
		GateSigmas:       8,
		StuckRun:         4,
		Warmup:           5,
		ConfidenceFloor:  0.7,
	}
}

// withDefaults fills zero fields from DefaultConfig and applies the
// documented clamps (negative Warmup means 0, negative ConfidenceFloor
// disables low-confidence flagging).
func (c Config) withDefaults() Config {
	def := DefaultConfig()
	if c.ProcessNoise == 0 {
		c.ProcessNoise = def.ProcessNoise
	}
	if c.MeasurementNoise == 0 {
		c.MeasurementNoise = def.MeasurementNoise
	}
	if c.GateSigmas == 0 {
		c.GateSigmas = def.GateSigmas
	}
	if c.StuckRun == 0 {
		c.StuckRun = def.StuckRun
	}
	if c.Warmup == 0 {
		c.Warmup = def.Warmup
	} else if c.Warmup < 0 {
		c.Warmup = 0
	}
	if c.ConfidenceFloor == 0 {
		c.ConfidenceFloor = def.ConfidenceFloor
	} else if c.ConfidenceFloor < 0 {
		c.ConfidenceFloor = 0
	}
	return c
}

// Validate applies defaults and clamps first, then returns one error
// per remaining violation, each wrapping core.ErrBadConfig. A nil (or
// empty) result means the configuration is usable as resolved.
func (c Config) Validate() []error {
	c = c.withDefaults()
	var errs []error
	if !(c.ProcessNoise > 0) || math.IsInf(c.ProcessNoise, 0) {
		errs = append(errs, fmt.Errorf("fuse: %w: process noise %v must be positive and finite", core.ErrBadConfig, c.ProcessNoise))
	}
	if !(c.MeasurementNoise > 0) || math.IsInf(c.MeasurementNoise, 0) {
		errs = append(errs, fmt.Errorf("fuse: %w: measurement noise %v must be positive and finite", core.ErrBadConfig, c.MeasurementNoise))
	}
	if !(c.GateSigmas > 0) || math.IsInf(c.GateSigmas, 0) {
		errs = append(errs, fmt.Errorf("fuse: %w: gate width %v must be positive and finite", core.ErrBadConfig, c.GateSigmas))
	}
	if c.StuckRun < 2 {
		errs = append(errs, fmt.Errorf("fuse: %w: stuck run %d must be at least 2", core.ErrBadConfig, c.StuckRun))
	}
	if !(c.ConfidenceFloor >= 0 && c.ConfidenceFloor <= 1) {
		errs = append(errs, fmt.Errorf("fuse: %w: confidence floor %v must be in [0, 1]", core.ErrBadConfig, c.ConfidenceFloor))
	}
	return errs
}
