// Package core assembles the paper's primary contribution: the two-level
// coordinated website capacity measurement system (§III). A Monitor holds
// one performance synopsis per (training workload × tier) combination and a
// coordinated two-level predictor on top; online, each 30-second window of
// per-tier metric vectors flows through every synopsis to form a Global
// Pattern Vector, and the coordinated predictor infers the system-wide
// overload state and — when overloaded — the bottleneck tier.
//
// A trained Monitor is safe for concurrent use: the synopses and the
// predictor's trained tables are read-mostly shared state, and each
// prediction stream's temporal history lives in a Session (NewSession).
// Sessions are the primary prediction API — one per monitored stream. The
// Monitor's own Predict/Feedback/ResetHistory are single-stream
// compatibility shims that serialize every caller on an internal default
// session; prefer NewSession in new code.
//
// Predict reports failures through typed sentinel errors (ErrUntrained,
// ErrDimensionMismatch) and Train through ErrBadConfig, so callers can
// branch with errors.Is instead of string matching.
package core

import (
	"context"
	"errors"
	"fmt"

	"hpcap/internal/featsel"
	"hpcap/internal/metrics"
	"hpcap/internal/ml"
	"hpcap/internal/parallel"
	"hpcap/internal/predictor"
	"hpcap/internal/server"
	"hpcap/internal/synopsis"
)

// Observation is one aggregated window of per-tier metric vectors at the
// monitor's metric level, in the full collector layout.
type Observation struct {
	Time    float64
	Vectors [server.NumTiers][]float64
}

// LabeledWindow is one training window: the observation plus its offline
// ground truth.
type LabeledWindow struct {
	Observation
	Overload   int
	Bottleneck server.TierID
}

// TrainingSet is the labeled trace of one training workload (e.g. the
// browsing ramp-up plus spike run).
type TrainingSet struct {
	Workload string
	Windows  []LabeledWindow
}

// Prediction is the monitor's per-window output.
type Prediction struct {
	Overload bool
	// Bottleneck is meaningful only when Overload is true.
	Bottleneck server.TierID
	// GPV is the individual synopses' votes, for diagnostics.
	GPV []int
}

// Config tunes monitor training.
type Config struct {
	// Learner builds the synopses; zero value is invalid — callers pick
	// one of the four (the paper recommends TAN).
	Learner ml.Learner
	// Synopsis tunes attribute selection.
	Synopsis synopsis.Config
	// Coordinator tunes the two-level predictor (h=3, δ=5, optimistic by
	// default, as in §V.C).
	Coordinator predictor.Config
	// TrainPasses is how many passes over the training traces the
	// coordinated predictor takes; zero selects 12. The GPT×LHT cells
	// partition the training instances finely, so saturating counters
	// need several passes to accumulate past the ±δ confidence band.
	TrainPasses int
	// Workers bounds the goroutines building the (training set × tier)
	// synopses, which are independent of each other; values below 2 train
	// sequentially. The result is identical either way — synopses are
	// assembled in the sequential loop order.
	Workers int
}

// DefaultConfig returns the training knobs at their defaults. Learner
// stays zero — there is no default learner; callers pick one of the
// four (the paper recommends TAN).
func DefaultConfig() Config {
	return Config{TrainPasses: 12}
}

// withDefaults resolves zero fields to DefaultConfig.
func (c Config) withDefaults() Config {
	if c.TrainPasses <= 0 {
		c.TrainPasses = DefaultConfig().TrainPasses
	}
	return c
}

// Validate applies defaults first, then returns one error per violated
// constraint, each wrapping ErrBadConfig. The nested synopsis and
// coordinator configs are validated too, their violations wrapped so
// one errors.Is check covers the whole training configuration.
func (c Config) Validate() []error {
	c = c.withDefaults()
	var errs []error
	if c.Learner.New == nil {
		errs = append(errs, fmt.Errorf("core: %w: Config.Learner is required", ErrBadConfig))
	}
	for _, err := range c.Synopsis.Validate() {
		errs = append(errs, fmt.Errorf("core: %w: %v", ErrBadConfig, err))
	}
	for _, err := range c.Coordinator.Validate() {
		errs = append(errs, fmt.Errorf("core: %w: %v", ErrBadConfig, err))
	}
	return errs
}

// Monitor is the trained capacity measurement system for one metric level.
type Monitor struct {
	Level    metrics.Level
	Synopses []*synopsis.Synopsis

	coordinator *predictor.Predictor
	// dim is the trained metric-vector length per tier; observations are
	// validated against it before touching the synopses.
	dim int
}

// Train builds a monitor: one synopsis per (training set × tier), then the
// coordinated predictor over the training traces in order.
func Train(level metrics.Level, names []string, sets []TrainingSet, cfg Config) (*Monitor, error) {
	if errs := cfg.Validate(); len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("core: %w: no training sets", ErrBadConfig)
	}
	passes := cfg.withDefaults().TrainPasses

	m := &Monitor{Level: level, dim: len(names)}
	buildOne := func(set TrainingSet, tier server.TierID) (*synopsis.Synopsis, error) {
		d := ml.NewDataset(names)
		for _, w := range set.Windows {
			if err := d.Add(w.Vectors[tier], w.Overload); err != nil {
				return nil, fmt.Errorf("core: training set %s: %w", set.Workload, err)
			}
		}
		syn, err := synopsis.Build(set.Workload, tier, level, cfg.Learner, d, cfg.Synopsis)
		if err != nil {
			return nil, fmt.Errorf("core: build synopsis %s/%s: %w", set.Workload, tier, err)
		}
		return syn, nil
	}
	if cfg.Workers > 1 {
		syns, err := parallel.Map(context.Background(), len(sets)*int(server.NumTiers), cfg.Workers,
			func(i int) (*synopsis.Synopsis, error) {
				return buildOne(sets[i/int(server.NumTiers)], server.TierID(i%int(server.NumTiers)))
			})
		if err != nil {
			return nil, err
		}
		m.Synopses = syns
	} else {
		for _, set := range sets {
			for tier := server.TierID(0); tier < server.NumTiers; tier++ {
				syn, err := buildOne(set, tier)
				if err != nil {
					return nil, err
				}
				m.Synopses = append(m.Synopses, syn)
			}
		}
	}

	coord, err := predictor.New(len(m.Synopses), server.NumTiers, cfg.Coordinator)
	if err != nil {
		return nil, fmt.Errorf("core: %w: %w", ErrBadConfig, err)
	}
	m.coordinator = coord
	scratch := make([]float64, m.maxAttrs())
	for pass := 0; pass < passes; pass++ {
		for _, set := range sets {
			coord.ResetHistory()
			for _, w := range set.Windows {
				gpv := m.gpv(w.Observation, scratch)
				if err := coord.Train(gpv, w.Overload, int(w.Bottleneck)); err != nil {
					return nil, err
				}
			}
		}
	}
	coord.ResetHistory()
	return m, nil
}

// maxAttrs is the widest synopsis projection, sizing scratch buffers.
func (m *Monitor) maxAttrs() int {
	max := 0
	for _, syn := range m.Synopses {
		if len(syn.Attrs) > max {
			max = len(syn.Attrs)
		}
	}
	return max
}

// gpv runs every synopsis over the observation, projecting through the
// caller's scratch buffer.
func (m *Monitor) gpv(obs Observation, scratch []float64) []int {
	gpv := make([]int, len(m.Synopses))
	for i, syn := range m.Synopses {
		gpv[i] = syn.PredictInto(scratch, obs.Vectors[syn.Tier])
	}
	return gpv
}

// checkDims validates the observation against the trained metric layout.
func (m *Monitor) checkDims(obs Observation) error {
	if m.dim <= 0 {
		return nil
	}
	for tier := server.TierID(0); tier < server.NumTiers; tier++ {
		if got := len(obs.Vectors[tier]); got != m.dim {
			return fmt.Errorf("core: %w: %s tier vector has %d metrics, trained on %d",
				ErrDimensionMismatch, tier, got, m.dim)
		}
	}
	return nil
}

// Session is one prediction stream over a shared trained Monitor: it owns
// its h-bit temporal history while reading the shared synopses and
// predictor tables. Sessions are cheap; give each concurrent caller its
// own. A single Session must not be used from multiple goroutines at once.
type Session struct {
	m     *Monitor
	coord *predictor.Session
	// scratch is the session-owned projection buffer; synopsis evaluation
	// reuses it every window so steady-state projection never allocates.
	scratch []float64
}

// NewSession returns an independent prediction stream with a cleared
// history register. Sessions over an untrained monitor are inert: their
// Predict returns ErrUntrained.
func (m *Monitor) NewSession() *Session {
	s := &Session{m: m, scratch: make([]float64, m.maxAttrs())}
	if m.coordinator != nil {
		s.coord = m.coordinator.NewSession()
	}
	return s
}

// Predict infers the system state for one window of this session's
// stream: the synopses vote the observation into a GPV, and the session's
// coordinated predictor folds the GPV and its own temporal history into
// the overload and bottleneck verdicts. Observations must arrive in trace
// order; unrelated traces need a ResetHistory between them.
func (s *Session) Predict(obs Observation) (Prediction, error) {
	if s.coord == nil {
		return Prediction{}, fmt.Errorf("core: %w", ErrUntrained)
	}
	if err := s.m.checkDims(obs); err != nil {
		return Prediction{}, err
	}
	gpv := s.m.gpv(obs, s.scratch)
	over, bott, err := s.coord.Predict(gpv)
	if err != nil {
		return Prediction{}, err
	}
	p := Prediction{Overload: over == 1, GPV: gpv}
	if over == 1 {
		p.Bottleneck = server.TierID(bott)
	}
	return p, nil
}

// Feedback reinforces the session's last prediction with observed truth;
// online adaptation beyond the paper's offline training.
func (s *Session) Feedback(overload bool, bottleneck server.TierID) {
	if s.coord == nil {
		return
	}
	o := 0
	if overload {
		o = 1
	}
	s.coord.Feedback(o, int(bottleneck))
}

// ResetHistory clears the session's temporal state (between traces or
// after long gaps).
func (s *Session) ResetHistory() {
	if s.coord != nil {
		s.coord.ResetHistory()
	}
}

// Coordinator exposes the two-level predictor (diagnostics, ablations).
func (m *Monitor) Coordinator() *predictor.Predictor { return m.coordinator }

// InputDim is the per-tier metric-vector length the monitor was trained
// on (zero on a hand-assembled monitor, which disables validation).
func (m *Monitor) InputDim() int { return m.dim }

// SynopsisByKey finds a synopsis by its Key(), or nil.
func (m *Monitor) SynopsisByKey(key string) *synopsis.Synopsis {
	for _, s := range m.Synopses {
		if s.Key() == key {
			return s
		}
	}
	return nil
}

// DefaultSynopsisConfig returns the paper's synopsis construction settings
// with a deterministic seed.
func DefaultSynopsisConfig(seed int64) synopsis.Config {
	return synopsis.Config{Selection: featsel.Config{Seed: seed}}
}
