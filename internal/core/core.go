// Package core assembles the paper's primary contribution: the two-level
// coordinated website capacity measurement system (§III). A Monitor holds
// one performance synopsis per (training workload × tier) combination and a
// coordinated two-level predictor on top; online, each 30-second window of
// per-tier metric vectors flows through every synopsis to form a Global
// Pattern Vector, and the coordinated predictor infers the system-wide
// overload state and — when overloaded — the bottleneck tier.
//
// A trained Monitor is safe for concurrent use: each synopsis is a flat
// scoring table every stream reads, the predictor's trained tables are
// shared read-mostly state, and each prediction stream's temporal history
// and scratch live in a Session (NewSession). Session.PredictInto is the
// allocation-free per-window decision, Session.Predict the same decision
// into a fresh Prediction, and Monitor.DecideAll decides a whole batch of
// sessions in one synopsis-major pass.
//
// Predict reports failures through typed sentinel errors (ErrUntrained,
// ErrDimensionMismatch) and Train through ErrBadConfig, so callers can
// branch with errors.Is instead of string matching.
package core

import (
	"context"
	"errors"
	"fmt"

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
	// Seed shuffles attribute selection's cross-validation folds.
	Seed int64
	// Coordinator tunes the two-level predictor (h=3, δ=5, optimistic by
	// default, as in §V.C).
	Coordinator predictor.Config
	// Workers bounds the goroutines building the (training set × tier)
	// synopses, which are independent of each other; values below 2 train
	// sequentially. The result is identical either way — synopses are
	// assembled in the sequential loop order.
	Workers int
}

// trainPasses is how many passes over the training traces the coordinated
// predictor takes. The GPT×LHT cells partition the training instances
// finely, so saturating counters need several passes to accumulate past
// the ±δ confidence band.
const trainPasses = 12

// Validate returns one error per violated constraint, each wrapping
// ErrBadConfig. The coordinator config is validated too, its violations
// wrapped so one errors.Is check covers the whole training configuration.
func (c Config) Validate() []error {
	var errs []error
	if c.Learner.New == nil {
		errs = append(errs, fmt.Errorf("core: %w: Config.Learner is required", ErrBadConfig))
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
	m := &Monitor{Level: level, dim: len(names)}
	buildOne := func(set TrainingSet, tier server.TierID) (*synopsis.Synopsis, error) {
		d := ml.NewDataset(names)
		for _, w := range set.Windows {
			if err := d.Add(w.Vectors[tier], w.Overload); err != nil {
				return nil, fmt.Errorf("core: training set %s: %w", set.Workload, err)
			}
		}
		syn, err := synopsis.Build(set.Workload, tier, level, cfg.Learner, d, cfg.Seed)
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
	var scr ml.Scratch
	gpv := make([]int, len(m.Synopses))
	for pass := 0; pass < trainPasses; pass++ {
		for _, set := range sets {
			sess := coord.NewSession()
			for _, w := range set.Windows {
				for i, syn := range m.Synopses {
					gpv[i] = syn.Predict(w.Vectors[syn.Tier], &scr)
				}
				if err := sess.Train(gpv, w.Overload, int(w.Bottleneck)); err != nil {
					return nil, err
				}
			}
		}
	}
	return m, nil
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
// its h-bit temporal history and all per-call scratch while reading the
// shared synopses and predictor tables, so its steady-state PredictInto
// is allocation-free. Sessions are cheap; give each concurrent caller its
// own. A single Session must not be used from multiple goroutines at once.
type Session struct {
	m     *Monitor
	coord *predictor.Session
	scr   ml.Scratch
}

// NewSession returns an independent prediction stream with a cleared
// history register. Sessions over an untrained monitor are inert: their
// Predict returns ErrUntrained.
func (m *Monitor) NewSession() *Session {
	s := &Session{m: m}
	if m.coordinator != nil {
		s.coord = m.coordinator.NewSession()
	}
	return s
}

// Monitor returns the monitor this session predicts through.
func (s *Session) Monitor() *Monitor { return s.m }

// check is the validation every decision starts with: a trained monitor
// and an observation in its metric layout.
func (s *Session) check(obs Observation) error {
	if s.coord == nil {
		return errUntrained
	}
	return s.m.checkDims(obs)
}

// errUntrained is what every decision on an untrained monitor returns.
var errUntrained = fmt.Errorf("core: %w", ErrUntrained)

// PredictInto infers the system state for one window of this session's
// stream into out, reusing out's GPV storage when its capacity suffices:
// the synopses vote the observation into a GPV, and the session's
// coordinated predictor folds the GPV and its own temporal history into
// the overload and bottleneck verdicts. Observations must arrive in trace
// order; unrelated traces need a ResetHistory between them. On error out
// is unspecified.
func (s *Session) PredictInto(obs Observation, out *Prediction) error {
	if err := s.check(obs); err != nil {
		return err
	}
	n := len(s.m.Synopses)
	gpv := out.GPV
	if cap(gpv) < n {
		gpv = make([]int, n)
	}
	gpv = gpv[:n]
	idx := 0
	for i, syn := range s.m.Synopses {
		bit := syn.Predict(obs.Vectors[syn.Tier], &s.scr)
		if bit&^1 != 0 {
			return fmt.Errorf("core: synopsis %d predicted %d, want 0 or 1", i, bit)
		}
		gpv[i] = bit
		idx |= bit << i
	}
	over, bott := s.coord.PredictPacked(idx)
	out.Overload = over == 1
	out.Bottleneck = 0
	if over == 1 {
		out.Bottleneck = server.TierID(bott)
	}
	out.GPV = gpv
	return nil
}

// Predict is PredictInto into a fresh Prediction, whose GPV the caller
// may keep.
func (s *Session) Predict(obs Observation) (Prediction, error) {
	var p Prediction
	if err := s.PredictInto(obs, &p); err != nil {
		return Prediction{}, err
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

// DecideBatch is caller-owned scratch for DecideAll, reused across
// batches so the batched decision path never allocates in steady state.
type DecideBatch struct {
	idx  []int
	errs []error
}

// Err returns item i's outcome from the last DecideAll: nil if out[i]
// holds a valid prediction, the item's validation error otherwise.
func (b *DecideBatch) Err(i int) error { return b.errs[i] }

// DecideAll evaluates one window for every session in a single pass over
// the scoring tables: synopsis-major, so each synopsis's tables are loaded
// once and stay cache-hot across the whole batch instead of being
// re-walked per site. sess, obs and out are parallel slices; every session
// must come from this Monitor's NewSession, and each session's per-item
// outputs — prediction, history advance, and error outcome — are exactly
// those of a standalone PredictInto call, since sites are independent and
// per-item evaluation order is preserved.
func (m *Monitor) DecideAll(b *DecideBatch, sess []*Session, obs []Observation, out []Prediction) {
	n := len(obs)
	if len(sess) != n || len(out) != n {
		panic("core: DecideAll slice lengths differ")
	}
	if cap(b.idx) < n {
		b.idx = make([]int, n)
		b.errs = make([]error, n)
	}
	b.idx, b.errs = b.idx[:n], b.errs[:n]
	nsyn := len(m.Synopses)
	for i := 0; i < n; i++ {
		if sess[i].m != m {
			panic("core: DecideAll session from a different Monitor")
		}
		b.idx[i] = 0
		if b.errs[i] = sess[i].check(obs[i]); b.errs[i] != nil {
			continue
		}
		gpv := out[i].GPV
		if cap(gpv) < nsyn {
			gpv = make([]int, nsyn)
		}
		out[i].GPV = gpv[:nsyn]
	}
	for k, syn := range m.Synopses {
		tier := syn.Tier
		for i := 0; i < n; i++ {
			if b.errs[i] != nil {
				continue
			}
			bit := syn.Predict(obs[i].Vectors[tier], &sess[i].scr)
			if bit&^1 != 0 {
				b.errs[i] = fmt.Errorf("core: synopsis %d predicted %d, want 0 or 1", k, bit)
				continue
			}
			out[i].GPV[k] = bit
			b.idx[i] |= bit << k
		}
	}
	for i := 0; i < n; i++ {
		if b.errs[i] != nil {
			continue
		}
		over, bott := sess[i].coord.PredictPacked(b.idx[i])
		out[i].Overload = over == 1
		out[i].Bottleneck = 0
		if over == 1 {
			out[i].Bottleneck = server.TierID(bott)
		}
	}
}

// Coordinator exposes the two-level predictor (diagnostics, ablations).
func (m *Monitor) Coordinator() *predictor.Predictor { return m.coordinator }

// InputDim is the per-tier metric-vector length the monitor was trained
// on (zero on a hand-assembled monitor, which disables validation).
func (m *Monitor) InputDim() int { return m.dim }

// CompiledSession is Session.
//
// Deprecated: use Session. Kept because the benchmark module (bench/)
// still names it.
type CompiledSession = Session

// Compile returns m itself once trained, and ErrUntrained before Train.
//
// Deprecated: a trained Monitor decides directly; there is nothing to
// lower. Kept because the benchmark module (bench/) still calls it.
func (m *Monitor) Compile() (*Monitor, error) {
	if m.coordinator == nil {
		return nil, errUntrained
	}
	return m, nil
}
