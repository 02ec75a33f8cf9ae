// Package predictor implements the paper's coordinated two-level predictor
// (§III.C), a structure borrowed from the two-level adaptive branch
// predictors of Yeh and Patt:
//
//   - The first level is a Global Pattern Table (GPT) with one entry per
//     possible Global Pattern Vector (GPV) — the m-bit vector of the m
//     individual synopses' predictions in the current sampling interval.
//   - The second level holds, per GPT entry, a Local History Table (LHT)
//     indexed by the last h coordinated predictions; each LHT entry is a
//     saturating counter Hc (the Local History Bits) trained by
//     incrementing on overloaded instances and decrementing otherwise.
//   - The coordinated prediction is C = λ(Hc): overload above +δ,
//     underload below −δ, and a configurable optimistic/pessimistic
//     tie-break φ inside [−δ, +δ].
//   - A Bottleneck Pattern Table (BPT), indexed by GPV, holds per-tier
//     Bottleneck Vectors; the bottleneck prediction is the arg-max tier,
//     and it is consulted only when the system state is predicted
//     overloaded.
//
// Concurrency: after training, the GPT/LHT/BPT tables are read-mostly and
// shared; the h-bit history register is per-prediction-stream state. A
// Session carries one stream's register, so any number of goroutines may
// predict concurrently over one trained Predictor, each through its own
// Session. The prediction hot path is lock-free: the tables live in flat
// fixed-point arrays behind an atomic snapshot pointer, readers load
// individual counters atomically, and only the writers (Train, Feedback)
// serialize on a mutex. The Predictor's own Predict/Feedback/ResetHistory
// methods operate on a mutex-guarded default session, which keeps the
// historical single-stream API safe (if serialized) under concurrent use.
package predictor

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Scheme selects the tie-break φ(Hc) inside the [−δ, +δ] uncertainty band.
type Scheme int

// Tie-break schemes (§III.D).
const (
	// Optimistic predicts underload when uncertain.
	Optimistic Scheme = iota + 1
	// Pessimistic predicts overload when uncertain.
	Pessimistic
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case Optimistic:
		return "optimistic"
	case Pessimistic:
		return "pessimistic"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Config tunes the predictor. The paper's evaluation uses 3 history bits,
// δ=5 and the optimistic scheme.
type Config struct {
	// HistoryBits is h, the local-history length; zero selects 3.
	HistoryBits int
	// Delta is the confidence threshold δ; zero selects 5. Negative
	// values select a zero threshold (always decisive).
	Delta int
	// Scheme is the tie-break; zero selects Optimistic.
	Scheme Scheme
	// CounterMax saturates |Hc|; zero selects 64. The counters are 32-bit
	// fixed point, so values above 2³¹−1 clamp to 2³¹−1 (saturation keeps
	// every reachable counter within the clamp regardless).
	CounterMax int
}

// DefaultConfig returns the paper's §V.C settings: h=3, δ=5, optimistic
// tie-break, counters saturating at 64.
func DefaultConfig() Config {
	return Config{HistoryBits: 3, Delta: 5, Scheme: Optimistic, CounterMax: 64}
}

func (c Config) withDefaults() Config {
	def := DefaultConfig()
	if c.HistoryBits == 0 {
		c.HistoryBits = def.HistoryBits
	}
	if c.Delta == 0 {
		c.Delta = def.Delta
	}
	if c.Delta < 0 {
		c.Delta = 0
	}
	if c.Scheme == 0 {
		c.Scheme = def.Scheme
	}
	if c.CounterMax <= 0 {
		c.CounterMax = def.CounterMax
	}
	return c
}

// Validate applies defaults first, then returns one error per violated
// constraint. The predictor sits below the core package in the import
// graph, so unlike the higher-layer configs these errors carry no
// shared sentinel — match on the message.
func (c Config) Validate() []error {
	c = c.withDefaults()
	var errs []error
	if c.HistoryBits < 1 || c.HistoryBits > 12 {
		errs = append(errs, fmt.Errorf("predictor: history bits %d out of range [1,12]", c.HistoryBits))
	}
	if c.Scheme != Optimistic && c.Scheme != Pessimistic {
		errs = append(errs, fmt.Errorf("predictor: unknown tie-break scheme %d", c.Scheme))
	}
	return errs
}

// tables is one immutable-shape snapshot of the predictor's state: the
// GPT×LHT saturating counters and the BPT bottleneck vectors flattened
// into single contiguous fixed-point arrays. Readers obtain the snapshot
// with one atomic pointer load and index it with shifts — no locks, no
// second pointer chase — while individual cells are read and written with
// 32-bit atomics so concurrent Feedback never races a prediction. The
// pointer is swapped only when the table shape would change (it never does
// today; the indirection is the hot-swap seam).
type tables struct {
	// hbits is h; lht[gpv<<hbits | history] = Hc.
	hbits uint
	lht   []int32
	// bpt[gpv*tiers + tier] = bottleneck counter.
	bpt   []int32
	tiers int

	// Decision constants, denormalized from Config so λ(Hc) touches one
	// struct.
	delta       int32
	pessimistic bool
	counterMax  int32
}

// Predictor is the trained two-level coordinated predictor. The tables are
// shared by all Sessions through the atomic snapshot; mu serializes the
// writers (Train and Feedback) only — prediction traffic is lock-free.
type Predictor struct {
	cfg   Config
	m     int // number of synopses
	tiers int

	mu  sync.Mutex
	tab atomic.Pointer[tables]

	// def is the default session behind the Predictor's own
	// Predict/Feedback/ResetHistory methods; defMu serializes it.
	defMu sync.Mutex
	def   Session
}

// clamp32 saturates a non-negative config value into the int32 counters.
func clamp32(v int) int32 {
	if v > math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(v)
}

// New builds a predictor for m synopses and the given number of tiers.
func New(m, tiers int, cfg Config) (*Predictor, error) {
	if m < 1 || m > 16 {
		return nil, fmt.Errorf("predictor: m = %d synopses out of range [1,16]", m)
	}
	if tiers < 1 {
		return nil, fmt.Errorf("predictor: tiers = %d must be positive", tiers)
	}
	if errs := cfg.Validate(); len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	cfg = cfg.withDefaults()
	gptSize := 1 << m
	p := &Predictor{cfg: cfg, m: m, tiers: tiers}
	t := &tables{
		hbits:       uint(cfg.HistoryBits),
		tiers:       tiers,
		delta:       clamp32(cfg.Delta),
		pessimistic: cfg.Scheme == Pessimistic,
		counterMax:  clamp32(cfg.CounterMax),
	}
	t.lht = make([]int32, gptSize<<t.hbits)
	t.bpt = make([]int32, gptSize*tiers)
	p.tab.Store(t)
	p.def.p = p
	return p, nil
}

// Config returns the effective configuration.
func (p *Predictor) Config() Config { return p.cfg }

// Session is one prediction stream over a shared trained Predictor: the
// h-bit register of the stream's last coordinated predictions plus the
// cells its most recent Predict consulted (for Feedback). Sessions are
// cheap; give each concurrent caller its own. A Session must not itself be
// used from multiple goroutines at once.
type Session struct {
	p *Predictor
	// history is the register of the last h coordinated predictions.
	history int

	// last* remember the cells used by the most recent Predict so that
	// online Feedback can reinforce them.
	lastGPV     int
	lastHistory int
	lastValid   bool
}

// NewSession returns an independent prediction stream with a cleared
// history register.
func (p *Predictor) NewSession() *Session { return &Session{p: p} }

// gpvIndex packs the m synopsis predictions into a GPT index.
func (p *Predictor) gpvIndex(gpv []int) (int, error) {
	if len(gpv) != p.m {
		return 0, fmt.Errorf("predictor: GPV has %d bits, want %d", len(gpv), p.m)
	}
	idx := 0
	for i, b := range gpv {
		if b != 0 && b != 1 {
			return 0, fmt.Errorf("predictor: GPV bit %d is %d, want 0 or 1", i, b)
		}
		idx |= b << i
	}
	return idx, nil
}

// lambda applies the decision function λ(Hc).
func (t *tables) lambda(hc int32) int {
	switch {
	case hc > t.delta:
		return 1
	case hc < -t.delta:
		return 0
	case t.pessimistic:
		return 1
	default:
		return 0
	}
}

// shift pushes a prediction into the session's history register.
func (s *Session) shift(pred int) {
	mask := (1 << s.p.cfg.HistoryBits) - 1
	s.history = ((s.history << 1) | (pred & 1)) & mask
}

// ResetHistory clears the session's local-history register (e.g. between
// traces).
func (s *Session) ResetHistory() {
	s.history = 0
	s.lastValid = false
}

// Predict makes the coordinated prediction for one sampling interval of
// this session's stream. The bottleneck tier is only meaningful when
// overload is 1 (the bottleneck predictor is invoked on predicted
// overload, per the paper); it is -1 otherwise. Predict advances the
// session's history register with its own output.
func (s *Session) Predict(gpv []int) (overload int, bottleneck int, err error) {
	idx, err := s.p.gpvIndex(gpv)
	if err != nil {
		return 0, -1, err
	}
	overload, bottleneck = s.PredictPacked(idx)
	return overload, bottleneck, nil
}

// PredictPacked is Predict over a pre-packed GPT index, with the GPV
// validation hoisted out of the steady-state loop: the caller guarantees
// idx was packed from m bits (bit i = synopsis i's vote), as Predict and
// core's sessions do. It is the lock-free fast path — one
// atomic snapshot load, one shift-indexed counter load, λ(Hc), and only
// on predicted overload the BPT arg-max scan.
func (s *Session) PredictPacked(idx int) (overload int, bottleneck int) {
	t := s.p.tab.Load()
	hc := atomic.LoadInt32(&t.lht[idx<<t.hbits|s.history])
	overload = t.lambda(hc)
	bottleneck = -1
	if overload == 1 {
		bottleneck = t.argmaxBottleneck(idx)
	}
	s.lastGPV = idx
	s.lastHistory = s.history
	s.lastValid = true
	s.shift(overload)
	return overload, bottleneck
}

// Feedback reinforces the cells used by the session's most recent Predict
// with the observed truth, and corrects the history register so it records
// the actual outcome rather than the prediction — an online-adaptation
// extension beyond the paper's offline training. It is a no-op before any
// Predict.
func (s *Session) Feedback(overload int, bottleneck int) {
	if !s.lastValid {
		return
	}
	p := s.p
	mask := (1 << p.cfg.HistoryBits) - 1
	s.history = ((s.lastHistory << 1) | (overload & 1)) & mask
	t := p.tab.Load()
	p.mu.Lock()
	defer p.mu.Unlock()
	cell := &t.lht[s.lastGPV<<t.hbits|s.lastHistory]
	hc := atomic.LoadInt32(cell)
	if overload == 1 {
		if hc < t.counterMax {
			atomic.StoreInt32(cell, hc+1)
		}
		if bottleneck >= 0 && bottleneck < p.tiers {
			t.updateBPT(s.lastGPV, bottleneck)
		}
	} else if hc > -t.counterMax {
		atomic.StoreInt32(cell, hc-1)
	}
}

// updateBPT reinforces the true bottleneck tier of one GPV row and decays
// the others, saturating at ±counterMax. The caller holds the writer mutex;
// the stores are atomic only so lock-free readers never race them.
func (t *tables) updateBPT(idx, bottleneck int) {
	base := idx * t.tiers
	for tr := 0; tr < t.tiers; tr++ {
		cell := &t.bpt[base+tr]
		v := atomic.LoadInt32(cell)
		if tr == bottleneck {
			if v < t.counterMax {
				atomic.StoreInt32(cell, v+1)
			}
		} else if v > -t.counterMax {
			atomic.StoreInt32(cell, v-1)
		}
	}
}

// ResetHistory clears the default session's local-history register (e.g.
// between traces).
func (p *Predictor) ResetHistory() {
	p.defMu.Lock()
	defer p.defMu.Unlock()
	p.def.ResetHistory()
}

// Train consumes one training instance: the synopses' GPV, the true
// overload label, and the bottleneck tier (ignored unless the instance is
// overloaded, mirroring the paper's training of the BPT on overloaded
// instances). The history register records the coordinated predictions
// made along the way ("the last h prediction results", §III.C), exactly as
// online prediction does, so instances must be presented in trace order.
// Train drives the default session's register.
func (p *Predictor) Train(gpv []int, overload int, bottleneck int) error {
	p.defMu.Lock()
	defer p.defMu.Unlock()
	idx, err := p.gpvIndex(gpv)
	if err != nil {
		return err
	}
	if overload != 0 && overload != 1 {
		return fmt.Errorf("predictor: overload label %d, want 0 or 1", overload)
	}
	if overload == 1 && (bottleneck < 0 || bottleneck >= p.tiers) {
		return fmt.Errorf("predictor: bottleneck tier %d out of range", bottleneck)
	}
	t := p.tab.Load()
	p.mu.Lock()
	defer p.mu.Unlock()
	cell := &t.lht[idx<<t.hbits|p.def.history]
	hc := atomic.LoadInt32(cell)
	pred := t.lambda(hc)
	// Saturating update toward the truth.
	if overload == 1 {
		if hc < t.counterMax {
			atomic.StoreInt32(cell, hc+1)
		}
	} else if hc > -t.counterMax {
		atomic.StoreInt32(cell, hc-1)
	}
	// Bottleneck vector: reinforce the true bottleneck on overloaded
	// instances, decay the others.
	if overload == 1 {
		t.updateBPT(idx, bottleneck)
	}
	p.def.shift(pred)
	return nil
}

// Predict makes the coordinated prediction on the default session; see
// Session.Predict. Concurrent callers are serialized — give each its own
// Session instead.
func (p *Predictor) Predict(gpv []int) (overload int, bottleneck int, err error) {
	p.defMu.Lock()
	defer p.defMu.Unlock()
	return p.def.Predict(gpv)
}

// Feedback reinforces the default session's most recent Predict; see
// Session.Feedback.
func (p *Predictor) Feedback(overload int, bottleneck int) {
	p.defMu.Lock()
	defer p.defMu.Unlock()
	p.def.Feedback(overload, bottleneck)
}

// argmaxBottleneck returns λb(bK...b1) = arg max over tier counters.
func (t *tables) argmaxBottleneck(idx int) int {
	base := idx * t.tiers
	best := 0
	bestV := atomic.LoadInt32(&t.bpt[base])
	for tr := 1; tr < t.tiers; tr++ {
		if v := atomic.LoadInt32(&t.bpt[base+tr]); v > bestV {
			best, bestV = tr, v
		}
	}
	return best
}

// Counter exposes one Hc value (for tests and diagnostics).
func (p *Predictor) Counter(gpv []int, history int) (int, error) {
	idx, err := p.gpvIndex(gpv)
	if err != nil {
		return 0, err
	}
	t := p.tab.Load()
	if history < 0 || history >= 1<<t.hbits {
		return 0, fmt.Errorf("predictor: history index %d out of range", history)
	}
	return int(atomic.LoadInt32(&t.lht[idx<<t.hbits|history])), nil
}
