package serve

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"hpcap/internal/core"
	"hpcap/internal/server"
)

// lanes is everything a serving pipeline is apart from queueing: the
// resolved configuration and one engine per lane behind that lane's lock.
// Pipeline is one lane applied in place on the caller's goroutine;
// ShardedPipeline puts a batch queue and a goroutine in front of each of
// N. Every method here is promoted to both, so the state machine, its
// publication rules and its counters exist once.
type lanes struct {
	cfg    Config
	dim    int
	shards []*shard
}

// configure validates the monitor every lane's engine decides through
// (immutable apart from Feedback, safe to share) and the serving config.
// The caller builds the lanes.
func (l *lanes) configure(m *core.Monitor, cfg Config) error {
	if m == nil {
		return fmt.Errorf("serve: %w: nil monitor", core.ErrBadConfig)
	}
	if m.Coordinator() == nil {
		return fmt.Errorf("serve: %w", core.ErrUntrained)
	}
	if m.InputDim() <= 0 {
		return fmt.Errorf("serve: %w: monitor has no metric layout", core.ErrBadConfig)
	}
	if errs := cfg.Validate(); len(errs) > 0 {
		return errors.Join(errs...)
	}
	l.cfg, l.dim = cfg.withDefaults(), m.InputDim()
	return nil
}

// lane returns the lane a site lives on.
func (l *lanes) lane(siteName string) *shard {
	return l.shards[SiteShard(siteName, len(l.shards))]
}

// dispatch publishes a batch's decisions and health events in generation
// order, outside all pipeline locks.
func (l *lanes) dispatch(pubs []pub) {
	for k := range pubs {
		pb := &pubs[k]
		if pb.isEvent {
			if l.cfg.OnHealth != nil {
				l.cfg.OnHealth(pb.ev)
			}
		} else if l.cfg.OnDecision != nil {
			l.cfg.OnDecision(pb.d)
		}
	}
}

// flushWindows force-closes every site's in-progress window, lane by lane.
func (l *lanes) flushWindows() {
	for _, sh := range l.shards {
		sh.emu.Lock()
		pubs := sh.eng.flushAll()
		sh.emu.Unlock()
		l.publish(sh, pubs)
	}
}

// publish dispatches publications taken from a lane's engine outside its
// lock, then gives the slice back. Only a non-empty batch costs the second
// lock, so the per-sample path of Pipeline.Ingest pays it once per
// published window, not once per sample.
func (l *lanes) publish(sh *shard, pubs []pub) {
	if pubs == nil {
		return
	}
	l.dispatch(pubs)
	sh.emu.Lock()
	sh.eng.recycle(pubs)
	sh.emu.Unlock()
}

// SwapMonitor atomically replaces the model serving one site: the site's
// session is replaced by a fresh session over m under the lane lock, so
// the in-progress window and its half-aggregated samples are preserved
// and every pending window is decided by the new model — the swap drops
// nothing. Apart from the pipeline's original monitor, a model is held
// only by the sessions serving it, so one swapped off every site is
// garbage. The new session starts with empty temporal history
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
	eng.sess[i] = m.NewSession()
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
