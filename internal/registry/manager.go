package registry

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"hpcap/internal/core"
	"hpcap/internal/drift"
	"hpcap/internal/ml"
	"hpcap/internal/pi"
	"hpcap/internal/serve"
)

// EventKind labels lifecycle events.
type EventKind int

// The lifecycle event kinds.
const (
	// EventDrift reports drift signals on one labeled window.
	EventDrift EventKind = iota + 1
	// EventRetrain reports a completed retrain attempt, swapped or not.
	EventRetrain
)

// Event is one lifecycle occurrence, emitted via Config.OnEvent.
type Event struct {
	Kind EventKind
	Site string
	// Seq is the labeled window that produced the event (for retrains,
	// the window whose drift signal triggered the attempt).
	Seq     int64
	Signals []drift.Signal // EventDrift
	Version Version        // EventRetrain: the registered candidate
	Err     error          // EventRetrain: training failure (no Version)
}

// String renders the event in a stable, golden-friendly layout.
func (e Event) String() string {
	switch e.Kind {
	case EventDrift:
		parts := make([]string, len(e.Signals))
		for i, s := range e.Signals {
			parts[i] = s.String()
		}
		return fmt.Sprintf("drift site=%s seq=%d %s", e.Site, e.Seq, strings.Join(parts, "; "))
	case EventRetrain:
		if e.Err != nil {
			return fmt.Sprintf("retrain site=%s seq=%d err=%v", e.Site, e.Seq, e.Err)
		}
		v := e.Version
		return fmt.Sprintf("retrain site=%s seq=%d version=%d windows=%d shadow cand=%.4f inc=%.4f swapped=%t",
			e.Site, e.Seq, v.ID, v.Windows, v.CandidateBA, v.IncumbentBA, v.Swapped)
	default:
		return fmt.Sprintf("event(%d) site=%s seq=%d", int(e.Kind), e.Site, e.Seq)
	}
}

// Pipeline is the slice of the serving surface the lifecycle drives:
// swapping a site's model and surfacing drift signals on its counters.
// Both serve.Pipeline and serve.ShardedPipeline satisfy it, so one
// manager runs unchanged over the single-lock and the fleet-scale
// sharded serving paths.
type Pipeline interface {
	SwapMonitor(site string, m *core.Monitor, version int64) (serve.SwapEvent, error)
	NoteDrift(site string, n int)
}

// Config tunes a Manager.
type Config struct {
	// Pipeline is the serving pipeline whose models the manager swaps.
	Pipeline Pipeline
	// Initial is the trained monitor the pipeline was built with; it is
	// registered as version 0 of every site the manager sees.
	Initial *core.Monitor
	// Names is the metric layout of decision vectors, used for
	// retraining datasets.
	Names []string
	// Train configures candidate retraining; Learner is required. Set
	// Train.Workers to fan the per-tier synopsis builds out over
	// internal/parallel workers.
	Train core.Config
	// Drift is the per-site detector configuration.
	Drift drift.Config
	// HistoryWindows is the labeled-window ring kept per site for
	// retraining snapshots; it must hold MinTrainWindows+ShadowWindows.
	// Zero selects 128.
	HistoryWindows int
	// MinTrainWindows is the least labeled windows (beyond the shadow
	// tail) required before a drift signal triggers a retrain. Zero
	// selects 32.
	MinTrainWindows int
	// ShadowWindows is the held-out tail of the history used to
	// shadow-evaluate candidate vs incumbent. Zero selects 12.
	ShadowWindows int
	// SwapMargin is how much the candidate's shadow balanced accuracy
	// must exceed the incumbent's to win the swap. Zero selects 0.02;
	// negative means any improvement wins.
	SwapMargin float64
	// CooldownWindows is the least labeled windows between retrain
	// attempts on one site. Zero selects 24.
	CooldownWindows int
	// Background moves retraining to a goroutine (the daemon's mode).
	// Synchronous retraining — the default — keeps the whole lifecycle
	// deterministic for replays.
	Background bool
	// OnEvent, when set, receives every lifecycle event. In background
	// mode it may be called from the retrain goroutine.
	OnEvent func(Event)
}

// DefaultConfig returns the lifecycle thresholds at their conservative
// defaults. Pipeline, Initial, Names, and Train have no defaults — the
// manager is meaningless without them.
func DefaultConfig() Config {
	return Config{
		HistoryWindows:  128,
		MinTrainWindows: 32,
		ShadowWindows:   12,
		SwapMargin:      0.02,
		CooldownWindows: 24,
	}
}

func (c Config) withDefaults() Config {
	def := DefaultConfig()
	if c.HistoryWindows == 0 {
		c.HistoryWindows = def.HistoryWindows
	}
	if c.MinTrainWindows == 0 {
		c.MinTrainWindows = def.MinTrainWindows
	}
	if c.ShadowWindows == 0 {
		c.ShadowWindows = def.ShadowWindows
	}
	if c.SwapMargin == 0 {
		c.SwapMargin = def.SwapMargin
	} else if c.SwapMargin < 0 {
		// "Any improvement wins": a strictly better candidate swaps, a
		// tied or worse one never does.
		c.SwapMargin = 0
	}
	if c.CooldownWindows == 0 {
		c.CooldownWindows = def.CooldownWindows
	}
	return c
}

// Validate applies defaults first, then returns one error per violated
// constraint, each wrapping core.ErrBadConfig. Monitor-shape checks
// (trained initial model, name/dimension agreement) stay in NewManager
// under their own sentinel errors; Validate covers configuration shape
// only.
func (c Config) Validate() []error {
	c = c.withDefaults()
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("registry: %w: "+format, append([]any{core.ErrBadConfig}, args...)...))
	}
	if c.Pipeline == nil {
		bad("nil pipeline")
	}
	if c.Train.Learner.New == nil {
		bad("Train.Learner is required")
	}
	if c.HistoryWindows < 1 {
		bad("history windows %d, need >= 1", c.HistoryWindows)
	}
	if c.ShadowWindows < 1 {
		bad("shadow windows %d, need >= 1", c.ShadowWindows)
	}
	if c.MinTrainWindows < 1 {
		bad("min train windows %d, need >= 1", c.MinTrainWindows)
	}
	// A retrain needs MinTrainWindows+ShadowWindows labeled windows, and
	// the history never holds more than HistoryWindows.
	if c.MinTrainWindows+c.ShadowWindows > c.HistoryWindows {
		bad("retrain unreachable: min train windows %d + shadow windows %d exceed history windows %d",
			c.MinTrainWindows, c.ShadowWindows, c.HistoryWindows)
	}
	if c.CooldownWindows < 0 {
		bad("cooldown windows %d, need >= 0", c.CooldownWindows)
	}
	errs = append(errs, c.Drift.Validate()...)
	return errs
}

// managed is the lifecycle state of one site.
type managed struct {
	mu         sync.Mutex
	det        *drift.Detector
	hist       []core.LabeledWindow
	incumbent  *core.Monitor
	retraining bool
	cooldownAt int64 // no retrain before this window seq
}

// lifecycleStripes is how many ways the manager's site table is striped.
// Sites route to stripes with the same hash the sharded pipeline routes
// ingest with, so a fleet spread over shards also spreads over stripes.
const lifecycleStripes = 16

// stripe is one lock's worth of the manager's site table.
type stripe struct {
	mu    sync.Mutex
	sites map[string]*managed
}

// Manager runs the adaptive model lifecycle over one pipeline's sites.
type Manager struct {
	cfg   Config
	store *Store

	stripes [lifecycleStripes]stripe
	guarded atomic.Uint64
	wg      sync.WaitGroup
}

// NewManager validates the configuration and returns a manager with an
// empty store. Wire it up by calling Observe with each decision and its
// ground truth.
func NewManager(cfg Config) (*Manager, error) {
	if errs := cfg.Validate(); len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	if cfg.Initial == nil || cfg.Initial.Coordinator() == nil {
		return nil, fmt.Errorf("registry: %w: initial monitor", core.ErrUntrained)
	}
	if len(cfg.Names) != cfg.Initial.InputDim() {
		return nil, fmt.Errorf("registry: %w: %d metric names for input dim %d",
			core.ErrDimensionMismatch, len(cfg.Names), cfg.Initial.InputDim())
	}
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:   cfg,
		store: NewStore(),
	}
	for i := range m.stripes {
		m.stripes[i].sites = make(map[string]*managed)
	}
	return m, nil
}

// Store exposes the version store (for endpoints and tests).
func (m *Manager) Store() *Store { return m.store }

// Wait blocks until every background retrain in flight has completed.
func (m *Manager) Wait() { m.wg.Wait() }

// ensure returns the site's lifecycle state, creating it (and registering
// the initial model as version 0) on first use. Only the site's stripe
// locks: decisions for sites on different stripes never contend here.
func (m *Manager) ensure(site string) (*managed, error) {
	sp := &m.stripes[serve.SiteShard(site, lifecycleStripes)]
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if st, ok := sp.sites[site]; ok {
		return st, nil
	}
	det, err := drift.New(m.cfg.Drift)
	if err != nil {
		return nil, fmt.Errorf("registry: %s: %w", site, err)
	}
	st := &managed{
		det:       det,
		incumbent: m.cfg.Initial,
	}
	sp.sites[site] = st
	m.store.Register(site, Version{
		Monitor: m.cfg.Initial,
		Reason:  "initial",
		Swapped: true,
	})
	return st, nil
}

// Guarded returns how many degraded or low-confidence decisions the
// lifecycle refused to learn from.
func (m *Manager) Guarded() uint64 { return m.guarded.Load() }

// Observe hands the lifecycle one decided window and its ground truth:
// it advances the site's drift detectors and — when drift fires outside
// the cooldown with enough labeled history — retrains and possibly swaps
// the site's model. The caller pairs each decision with its truth; one
// whose truth comes late buffers the decision until it does. Safe to call
// from the pipeline's OnDecision callback. Degraded and low-confidence
// decisions are guarded out: a fault-corrupted (or mostly imputed) window
// is evidence about the stream, not the workload, so letting it advance
// the drift detectors or enter a retraining history would let injected
// noise trigger model churn.
func (m *Manager) Observe(d serve.Decision, tr pi.Truth) {
	// A site is registered on first contact, guarded or not, so its
	// initial model shows in the store even while its stream is faulted.
	st, err := m.ensure(d.Site)
	if d.Degraded || d.LowConfidence {
		m.guarded.Add(1)
		return
	}
	if err != nil {
		return
	}
	st.mu.Lock()
	st.hist = append(st.hist, core.LabeledWindow{
		Observation: core.Observation{Time: d.Time, Vectors: d.Vectors},
		Overload:    tr.Overload,
		Bottleneck:  tr.Bottleneck,
	})
	if over := len(st.hist) - m.cfg.HistoryWindows; over > 0 {
		st.hist = append(st.hist[:0], st.hist[over:]...)
	}
	sigs := st.det.Observe(drift.Observation{
		Seq:         d.Seq,
		Predicted:   d.Prediction.Overload,
		Truth:       tr.Overload == 1,
		ClassCounts: tr.Classes,
	})
	var snapshot []core.LabeledWindow
	retrain := false
	if len(sigs) > 0 && !st.retraining && d.Seq >= st.cooldownAt &&
		len(st.hist) >= m.cfg.MinTrainWindows+m.cfg.ShadowWindows {
		st.retraining = true
		retrain = true
		snapshot = append([]core.LabeledWindow(nil), st.hist...)
	}
	st.mu.Unlock()

	if len(sigs) > 0 {
		m.cfg.Pipeline.NoteDrift(d.Site, len(sigs))
		m.emit(Event{Kind: EventDrift, Site: d.Site, Seq: d.Seq, Signals: sigs})
	}
	if !retrain {
		return
	}
	reason := sigs[0].Kind.String()
	if m.cfg.Background {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.retrain(d.Site, st, snapshot, d.Seq, reason)
		}()
		return
	}
	m.retrain(d.Site, st, snapshot, d.Seq, reason)
}

// retrain builds a candidate from the history snapshot, shadow-evaluates
// it against the incumbent on the held-out tail, and swaps it in if it
// wins. hist holds at least MinTrainWindows+ShadowWindows windows.
func (m *Manager) retrain(site string, st *managed, hist []core.LabeledWindow, seq int64, reason string) {
	cut := len(hist) - m.cfg.ShadowWindows
	train, shadow := hist[:cut], hist[cut:]

	set := core.TrainingSet{Workload: "retrain", Windows: train}
	cand, err := core.Train(m.cfg.Initial.Level, m.cfg.Names, []core.TrainingSet{set}, m.cfg.Train)

	st.mu.Lock()
	incumbent := st.incumbent
	st.mu.Unlock()
	if err != nil {
		m.finishRetrain(st, seq)
		m.emit(Event{Kind: EventRetrain, Site: site, Seq: seq, Err: err})
		return
	}

	v := Version{
		Monitor:     cand,
		Reason:      reason,
		Windows:     len(train),
		CandidateBA: shadowScore(cand, shadow),
		IncumbentBA: shadowScore(incumbent, shadow),
		SwapSeq:     -1,
	}
	v = m.store.Register(site, v)
	if v.CandidateBA > v.IncumbentBA+m.cfg.SwapMargin {
		ev, err := m.cfg.Pipeline.SwapMonitor(site, cand, v.ID)
		if err == nil {
			m.store.RecordSwap(site, v.ID, ev.Seq)
			v.Swapped, v.SwapSeq = true, ev.Seq
			st.mu.Lock()
			st.incumbent = cand
			// The new model is judged against a fresh baseline; a
			// learned mix reference is relearned post-swap.
			st.det.Reset()
			st.mu.Unlock()
		}
	}
	m.finishRetrain(st, seq)
	m.emit(Event{Kind: EventRetrain, Site: site, Seq: seq, Version: v})
}

func (m *Manager) finishRetrain(st *managed, seq int64) {
	st.mu.Lock()
	st.retraining = false
	st.cooldownAt = seq + int64(m.cfg.CooldownWindows)
	st.mu.Unlock()
}

func (m *Manager) emit(e Event) {
	if m.cfg.OnEvent != nil {
		m.cfg.OnEvent(e)
	}
}

// shadowScore replays the held-out windows through a fresh session of the
// monitor and returns the balanced accuracy of its overload verdicts.
// Both models start the shadow slice with empty temporal history, so the
// comparison is symmetric.
func shadowScore(mon *core.Monitor, shadow []core.LabeledWindow) float64 {
	sess := mon.NewSession()
	var conf ml.Confusion
	for _, lw := range shadow {
		p, err := sess.Predict(lw.Observation)
		if err != nil {
			continue
		}
		pred := 0
		if p.Overload {
			pred = 1
		}
		conf.Add(lw.Overload, pred)
	}
	return conf.BalancedAccuracy()
}
