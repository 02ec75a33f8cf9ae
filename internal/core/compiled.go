// The compiled decision plane: a trained Monitor lowered into flat scoring
// tables (Monitor.Compile) plus per-stream CompiledSessions whose
// steady-state Predict is allocation-free, and a batch DecideAll that
// evaluates a whole shard's due list in one synopsis-major pass so the
// compiled tables stay hot in cache across sites.
//
// Correctness contract: for every observation stream, the compiled plane
// produces byte-identical Predictions (and identical error outcomes) to
// the interpreted Session path. The synopsis compilers only precompute
// values the interpreted path computes identically, and the coordinated
// predictor tables are shared — a compiled session and an interpreted
// session over the same monitor read (and Feedback writes) the very same
// saturating counters. Every serving decision goes through this plane;
// the interpreted Session stays in this package for the paper's batch
// experiments and as the oracle the equivalence is pinned against —
// TestCompiledMatchesInterpreted and FuzzDecideCompiled here, and serve's
// TestStreamingMatchesBatch, which holds compiled serving to the
// interpreted batch replay of the same windows.
package core

import (
	"fmt"

	"hpcap/internal/ml"
	"hpcap/internal/predictor"
	"hpcap/internal/server"
	"hpcap/internal/synopsis"
)

// CompiledMonitor is the lowered, immutable form of a trained Monitor:
// every synopsis compiled to a flat evaluation plan, sharing the source
// monitor's coordinated predictor tables. It is safe for concurrent use;
// per-stream state lives in CompiledSessions.
type CompiledMonitor struct {
	src   *Monitor
	syns  []*synopsis.Compiled
	coord *predictor.Predictor
}

// Compile lowers a trained monitor into its compiled decision plane. It
// fails with ErrUntrained before Train; synopses whose classifiers have no
// compiled form fall back to interpreted evaluation behind the same
// interface, so compilation never changes an output.
func (m *Monitor) Compile() (*CompiledMonitor, error) {
	if m.coordinator == nil {
		return nil, fmt.Errorf("core: %w", ErrUntrained)
	}
	cm := &CompiledMonitor{src: m, coord: m.coordinator}
	for _, syn := range m.Synopses {
		cs, err := syn.Compile()
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		cm.syns = append(cm.syns, cs)
	}
	return cm, nil
}

// Source returns the monitor this plane was compiled from.
func (cm *CompiledMonitor) Source() *Monitor { return cm.src }

// CompiledSession is one prediction stream over a compiled monitor. It
// owns the stream's predictor history and all per-call scratch, so its
// steady-state PredictInto is allocation-free. A CompiledSession must not
// be used from multiple goroutines at once; sessions are cheap — give
// each concurrent stream its own.
type CompiledSession struct {
	cm    *CompiledMonitor
	coord *predictor.Session
	scr   ml.Scratch
}

// NewSession returns an independent compiled prediction stream with a
// cleared history register.
func (cm *CompiledMonitor) NewSession() *CompiledSession {
	return &CompiledSession{cm: cm, coord: cm.coord.NewSession()}
}

// Monitor returns the compiled plane this session predicts through.
func (cs *CompiledSession) Monitor() *CompiledMonitor { return cs.cm }

// PredictInto infers the system state for one window of this session's
// stream into out, reusing out's GPV storage when its capacity suffices —
// the zero-allocation counterpart of Session.Predict, with identical
// outputs and error behavior. On error out is unspecified.
func (cs *CompiledSession) PredictInto(obs Observation, out *Prediction) error {
	cm := cs.cm
	if err := cm.src.checkDims(obs); err != nil {
		return err
	}
	n := len(cm.syns)
	gpv := out.GPV
	if cap(gpv) < n {
		gpv = make([]int, n)
	}
	gpv = gpv[:n]
	idx := 0
	for i, syn := range cm.syns {
		bit := syn.Predict(obs.Vectors[syn.Tier], &cs.scr)
		if bit&^1 != 0 {
			return fmt.Errorf("core: synopsis %d predicted %d, want 0 or 1", i, bit)
		}
		gpv[i] = bit
		idx |= bit << i
	}
	over, bott := cs.coord.PredictPacked(idx)
	out.Overload = over == 1
	out.Bottleneck = 0
	if over == 1 {
		out.Bottleneck = server.TierID(bott)
	}
	out.GPV = gpv
	return nil
}

// Feedback reinforces the session's last prediction with observed truth;
// see Session.Feedback.
func (cs *CompiledSession) Feedback(overload bool, bottleneck server.TierID) {
	o := 0
	if overload {
		o = 1
	}
	cs.coord.Feedback(o, int(bottleneck))
}

// ResetHistory clears the session's temporal state (between traces or
// after long gaps).
func (cs *CompiledSession) ResetHistory() { cs.coord.ResetHistory() }

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
// the compiled tables: synopsis-major, so each synopsis's scoring tables
// are loaded once and stay cache-hot across the whole batch instead of
// being re-walked per site. sess, obs and out are parallel slices; every
// session must come from this CompiledMonitor's NewSession, and each
// session's per-item outputs — prediction, history advance, and error
// outcome — are exactly those of a standalone PredictInto call, since
// sites are independent and per-item evaluation order is preserved.
func (cm *CompiledMonitor) DecideAll(b *DecideBatch, sess []*CompiledSession, obs []Observation, out []Prediction) {
	n := len(obs)
	if len(sess) != n || len(out) != n {
		panic("core: DecideAll slice lengths differ")
	}
	if cap(b.idx) < n {
		b.idx = make([]int, n)
		b.errs = make([]error, n)
	}
	b.idx, b.errs = b.idx[:n], b.errs[:n]
	nsyn := len(cm.syns)
	for i := 0; i < n; i++ {
		if sess[i].cm != cm {
			panic("core: DecideAll session from a different CompiledMonitor")
		}
		b.idx[i] = 0
		if b.errs[i] = cm.src.checkDims(obs[i]); b.errs[i] != nil {
			continue
		}
		gpv := out[i].GPV
		if cap(gpv) < nsyn {
			gpv = make([]int, nsyn)
		}
		out[i].GPV = gpv[:nsyn]
	}
	for k, syn := range cm.syns {
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
