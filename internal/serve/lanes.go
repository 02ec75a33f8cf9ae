package serve

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"hpcap/internal/core"
	"hpcap/internal/server"
)

// lanes is everything a serving pipeline is apart from queueing: the
// resolved configuration, one engine per lane behind that lane's lock, and
// the subscriber list. Pipeline is one lane applied in place on the
// caller's goroutine; ShardedPipeline puts a batch queue and a goroutine
// in front of each of N. Every method here is promoted to both, so the
// state machine, its publication rules and its counters exist once.
type lanes struct {
	cfg    Config
	dim    int
	shards []*shard

	subMu sync.RWMutex
	subs  []chan Decision
}

// configure validates the monitor and serving config and lowers the
// monitor into the compiled plane every lane's engine decides through
// (immutable, safe to share). The caller builds the lanes.
func (l *lanes) configure(m *core.Monitor, cfg Config) (*core.CompiledMonitor, error) {
	if m == nil {
		return nil, fmt.Errorf("serve: %w: nil monitor", core.ErrBadConfig)
	}
	if m.Coordinator() == nil {
		return nil, fmt.Errorf("serve: %w", core.ErrUntrained)
	}
	if m.InputDim() <= 0 {
		return nil, fmt.Errorf("serve: %w: monitor has no metric layout", core.ErrBadConfig)
	}
	if errs := cfg.Validate(); len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	cm, err := m.Compile()
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	l.cfg, l.dim = cfg.withDefaults(), m.InputDim()
	return cm, nil
}

// lane returns the lane a site lives on.
func (l *lanes) lane(siteName string) *shard {
	return l.shards[SiteShard(siteName, len(l.shards))]
}

// Window returns the effective aggregation window in seconds.
func (l *lanes) Window() int { return l.cfg.Window }

// dispatch publishes a batch's decisions and health events in generation
// order, outside all pipeline locks. Subscriber overflows are counted
// back onto the emitting sites afterwards.
func (l *lanes) dispatch(sh *shard, pubs []pub) {
	if len(pubs) == 0 {
		return
	}
	var dropCounts map[int32]uint64
	for k := range pubs {
		pb := &pubs[k]
		if pb.isEvent {
			if l.cfg.OnHealth != nil {
				l.cfg.OnHealth(pb.ev)
			}
			continue
		}
		if l.cfg.OnDecision != nil {
			l.cfg.OnDecision(*pb.d)
		}
		l.subMu.RLock()
		subs := l.subs
		l.subMu.RUnlock()
		dropped := 0
		for _, ch := range subs {
			select {
			case ch <- *pb.d:
			default:
				dropped++
			}
		}
		if dropped > 0 {
			if dropCounts == nil {
				dropCounts = make(map[int32]uint64)
			}
			dropCounts[pb.idx] += uint64(dropped)
		}
	}
	if dropCounts != nil {
		sh.emu.Lock()
		for i, n := range dropCounts {
			sh.eng.stats[i].DecisionsDropped += n
		}
		sh.emu.Unlock()
	}
}

// flushWindows force-closes every site's in-progress window, lane by lane.
func (l *lanes) flushWindows() {
	for _, sh := range l.shards {
		sh.emu.Lock()
		pubs := sh.eng.flushAll()
		sh.emu.Unlock()
		l.dispatch(sh, pubs)
	}
}

// SwapMonitor atomically replaces the model serving one site: the site's
// session is re-bound to a fresh session over m's compiled plane under the
// lane lock, so the in-progress window and its half-aggregated samples are
// preserved and every pending window is decided by the new model — the
// swap drops nothing. The new session starts with empty temporal history
// (the h-bit window of the old model's verdicts does not transfer). Sites
// created after the swap still serve the pipeline's original monitor.
//
// The owning lane is quiesced first, so the swap takes effect after every
// sample accepted for the site before the call — its stream position is
// deterministic. A Pipeline has no queue, so there the step is empty and
// SwapMonitor may be called from callbacks; on a ShardedPipeline it waits
// on the shard goroutine and must not be.
func (l *lanes) SwapMonitor(siteName string, m *core.Monitor, version int64) (SwapEvent, error) {
	if m == nil || m.Coordinator() == nil {
		return SwapEvent{}, fmt.Errorf("serve: swap %s: %w", siteName, core.ErrUntrained)
	}
	if m.InputDim() != l.dim {
		return SwapEvent{}, fmt.Errorf("serve: swap %s: %w: model dim %d, pipeline dim %d",
			siteName, core.ErrDimensionMismatch, m.InputDim(), l.dim)
	}
	sh := l.lane(siteName)
	sh.mu.Lock()
	sh.flushLocked()
	target := sh.enqueued.Load()
	sh.mu.Unlock()
	sh.waitProcessed(target)

	sh.emu.Lock()
	eng := sh.eng
	i := eng.site(siteName)
	if err := eng.swapSession(i, m); err != nil {
		sh.emu.Unlock()
		return SwapEvent{}, fmt.Errorf("serve: swap %s: %w", siteName, err)
	}
	ss := &eng.stats[i]
	ev := SwapEvent{
		Site:        siteName,
		Version:     version,
		PrevVersion: ss.ModelVersion,
		Seq:         eng.recs[i].cur,
	}
	ss.ModelVersion = version
	ss.ModelSwaps++
	ss.LastSwapSeq = eng.recs[i].cur
	sh.emu.Unlock()
	if l.cfg.OnSwap != nil {
		l.cfg.OnSwap(ev)
	}
	return ev, nil
}

// NoteDrift records n drift detections against a site's counters — the
// lifecycle manager reports signals here so they surface alongside the
// serving metrics.
func (l *lanes) NoteDrift(siteName string, n int) {
	if n <= 0 {
		return
	}
	sh := l.lane(siteName)
	sh.emu.Lock()
	sh.eng.stats[sh.eng.site(siteName)].DriftSignals += uint64(n)
	sh.emu.Unlock()
}

// NoteScale records one autoscaling action against a site's counters: the
// pool at tier slot now runs replicas replicas, after a scale-up (up) or
// scale-down. The registry's Autoscaler reports its actions here so
// capacity changes surface alongside the serving metrics. Out-of-range
// slots are ignored.
func (l *lanes) NoteScale(siteName string, slot server.TierID, replicas int, up bool) {
	if slot < 0 || slot >= server.NumTiers {
		return
	}
	sh := l.lane(siteName)
	sh.emu.Lock()
	st := &sh.eng.stats[sh.eng.site(siteName)]
	if up {
		st.ScaleUps++
	} else {
		st.ScaleDowns++
	}
	st.PoolReplicas[slot] = replicas
	sh.emu.Unlock()
}

// flagsOf returns a site's lock-free flag block, creating the site on
// first use.
func (l *lanes) flagsOf(siteName string) *siteFlags {
	sh := l.lane(siteName)
	sh.emu.Lock()
	f := sh.eng.flags[sh.eng.site(siteName)]
	sh.emu.Unlock()
	return f
}

// Overloaded reports the most recent decision's overload verdict for a
// site (false before the first decision).
func (l *lanes) Overloaded(siteName string) bool {
	return l.flagsOf(siteName).overloaded.Load()
}

// AdmissionValve returns a server.AdmissionFunc driven by the site's
// latest decision: everything is admitted while the monitor predicts
// underload; under predicted overload only a short pipeline is kept —
// requests are admitted while the wait queue is empty and fewer than
// maxBound workers are busy. While the site is stale (a tier outage or
// stream gap dropped a window), the valve fails open regardless of the
// last verdict: shedding load on a decision the fault already invalidated
// would amplify the outage. Install it with Testbed.SetAdmission to close
// the measurement→control loop. The valve reads pointer-stable atomics,
// so it stays lock-free no matter how large the site table grows.
func (l *lanes) AdmissionValve(siteName string, maxBound int) server.AdmissionFunc {
	f := l.flagsOf(siteName)
	return func(as server.AdmissionState) bool {
		if Health(f.health.Load()) == HealthStale {
			return true
		}
		if !f.overloaded.Load() {
			return true
		}
		return as.WaitQueue == 0 && as.BoundWorkers < maxBound
	}
}

// Subscribe registers a decision channel with the given buffer depth and
// returns it with a cancel function. Decisions that would block a full
// subscriber are dropped and counted on the emitting site.
func (l *lanes) Subscribe(buffer int) (<-chan Decision, func()) {
	if buffer < 1 {
		buffer = 1
	}
	ch := make(chan Decision, buffer)
	l.subMu.Lock()
	l.subs = append(l.subs, ch)
	l.subMu.Unlock()
	cancel := func() {
		l.subMu.Lock()
		for i, c := range l.subs {
			if c == ch {
				l.subs = append(l.subs[:i], l.subs[i+1:]...)
				break
			}
		}
		l.subMu.Unlock()
	}
	return ch, cancel
}

// SiteStats returns a snapshot of one site's counters. Unlike the other
// by-name accessors it does not create the site.
func (l *lanes) SiteStats(siteName string) (SiteStats, bool) {
	sh := l.lane(siteName)
	sh.emu.Lock()
	defer sh.emu.Unlock()
	i, ok := sh.eng.idx[siteName]
	if !ok {
		return SiteStats{}, false
	}
	return sh.eng.stats[i], true
}

// Stats snapshots every site's counters, merged across lanes and ordered
// by site name — the only point where per-lane state meets.
func (l *lanes) Stats() []SiteStats {
	var out []SiteStats
	for _, sh := range l.shards {
		sh.emu.Lock()
		out = append(out, sh.eng.stats...)
		sh.emu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// WriteMetrics renders every site's serving counters in Prometheus text
// exposition format. Sites appear as a label, ordered by name; scraping
// is allowed at any time and sees a consistent per-site snapshot.
func (l *lanes) WriteMetrics(w io.Writer) error {
	return writeSiteMetrics(w, l.Stats(), l.cfg.Fuse != nil, l.cfg)
}
