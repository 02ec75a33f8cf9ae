package serve

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"hpcap/internal/core"
	"hpcap/internal/server"
)

const (
	// MaxShards bounds the shard fan-out.
	MaxShards = 256
	// batchSize is how many samples a producer accumulates per shard
	// before handing the batch to the shard goroutine. Larger batches
	// amortize the queue handoff; smaller ones cut decision latency.
	batchSize = 64
	// queueBatches bounds the batches buffered in a shard's queue (4096
	// samples). A producer hitting a full queue blocks — backpressure,
	// counted as a stall — rather than dropping samples.
	queueBatches = 64
)

// ShardConfig tunes the sharded ingest fan-out.
type ShardConfig struct {
	// Shards is how many independent ingest shards (each with its own
	// goroutine, batch queue, and site table) the pipeline runs. Sites
	// hash to shards by name (SiteShard). Zero selects 8; the maximum is
	// MaxShards.
	Shards int
}

// Validate returns an error wrapping core.ErrBadConfig when the shard
// count is outside 0..MaxShards. It never panics.
func (c ShardConfig) Validate() []error {
	if c.Shards < 0 || c.Shards > MaxShards {
		return []error{fmt.Errorf("serve: %w: shards %d outside 1..%d", core.ErrBadConfig, c.Shards, MaxShards)}
	}
	return nil
}

// SiteShard routes a site name to its shard: FNV-1a over the name, mod
// the shard count. The routing is a pure function of the name, so it is
// stable across registrations, restarts, and pipelines (the lifecycle
// manager stripes its own site table with the same function).
func SiteShard(site string, shards int) int {
	if shards <= 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= prime64
	}
	return int(h % uint64(shards))
}

// SiteRef is a pre-routed handle to one site of a ShardedPipeline,
// resolved once by Register: the ref-based ingest path skips the
// per-sample hash and site-table lookup entirely. The zero SiteRef is
// invalid; feeding one to Batcher.AddSite is counted as a rejected ref.
type SiteRef struct {
	shard int32
	index int32 // dense index + 1; 0 marks the invalid zero value
}

// qsample is one queued sample: a Sample with its site either still a
// name (resolved by the shard goroutine) or a pre-resolved dense index.
// It is 104 bytes, and the queue moves it by value: a slot that grew to
// 128 measurably slowed the in-process fleet path, hence the single
// vector field shared by the two sample shapes.
type qsample struct {
	site  string
	idx   int32 // dense index + 1 when pre-resolved; 0 = resolve by name
	tier  server.TierID
	fused bool // one scrape carrying every tier's vector in vecs
	time  float64
	// vecs holds every tier's vector of a fused scrape; a single-tier
	// sample keeps its values in vecs[0].
	vecs [server.NumTiers][]float64
	// frame is set on the last scrape of a pooled decoded frame: the
	// shard hands the frame back once it has applied this sample.
	frame *loan
}

// shard is one ingest lane: a producer-side pending batch, a bounded
// queue of batches, and the dense engine its goroutine applies them to.
// Pipeline's single lane uses only emu and eng: with nothing ever queued,
// the zero queue fields make every quiesce step a no-op.
type shard struct {
	id int

	mu      sync.Mutex // producer side: pending batch + closed flag
	pending []qsample
	closed  bool

	ch   chan []qsample
	free chan []qsample // recycled batch buffers (zero-alloc steady state)

	emu sync.Mutex // engine state: held while samples or a snapshot are applied
	eng *engine

	enqueued  atomic.Uint64 // samples accepted into the queue
	processed atomic.Uint64 // samples applied by the shard goroutine
	batches   atomic.Uint64
	stalls    atomic.Uint64 // full-queue waits producers blocked through
	rejected  atomic.Uint64 // samples offered after Close
	badRefs   atomic.Uint64 // unresolvable SiteRefs

	syncMu   sync.Mutex
	syncCond *sync.Cond
}

// ShardedPipeline is the fleet-scale serving pipeline: sites hash to
// shards, each shard runs its own goroutine over a bounded batch queue
// and a dense engine, and per-shard counters merge only at snapshot
// time — steady-state ingest never takes a global lock.
//
// Per-site decision and health-event streams are byte-identical to
// Pipeline's for the same per-site sample stream (both apply the same
// engine); only cross-site interleaving differs, whatever the shard and
// batch geometry. Ingestion is asynchronous: a sample's decision
// appears after its batch is drained. Sync flushes partial batches and
// waits for everything accepted so far to be applied; Flush additionally
// force-closes open windows. Values slices passed to Ingest and
// Batcher.AddSite must not be mutated until the sample has been applied
// (Sync/Flush).
//
// Callbacks (OnDecision, OnHealth, OnSwap) run on shard goroutines,
// outside all pipeline locks, and may call back into the pipeline —
// except Sync, Flush, Close, and SwapMonitor, which wait on the very
// shard goroutine the callback is running on and would self-deadlock.
type ShardedPipeline struct {
	lanes
	batch int // samples per queued batch

	badRefs atomic.Uint64 // refs rejected producer-side (bad shard or zero ref)
	wg      sync.WaitGroup
	closed  atomic.Bool
}

// NewShardedPipeline builds a sharded serving pipeline over a trained
// monitor. cfg carries the window and callback configuration shared
// with NewPipeline; scfg the shard fan-out.
func NewShardedPipeline(m *core.Monitor, cfg Config, scfg ShardConfig) (*ShardedPipeline, error) {
	sp := &ShardedPipeline{}
	if err := sp.configure(m, cfg); err != nil {
		return nil, err
	}
	if errs := scfg.Validate(); len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	sp.geometry(m, cmp.Or(scfg.Shards, 8), batchSize, queueBatches)
	return sp, nil
}

// geometry starts the shards: each with a pending batch of up to batch
// samples, a queue of queueBatches batches, an engine and its goroutine.
// The pipeline runs on batchSize and queueBatches; tests choose others.
func (sp *ShardedPipeline) geometry(m *core.Monitor, shards, batch, queueBatches int) {
	sp.batch = batch
	sp.shards = make([]*shard, shards)
	for i := range sp.shards {
		sh := &shard{
			id:      i,
			pending: make([]qsample, 0, batch),
			ch:      make(chan []qsample, queueBatches),
			free:    make(chan []qsample, queueBatches+2),
			eng:     newEngine(m, sp.cfg, sp.dim),
		}
		sh.syncCond = sync.NewCond(&sh.syncMu)
		sp.shards[i] = sh
		sp.wg.Add(1)
		go sp.drain(sh)
	}
}

// Shards returns the shard count.
func (sp *ShardedPipeline) Shards() int { return len(sp.shards) }

// drain is one shard's goroutine: apply batches under the shard lock,
// publish the resulting decisions and events outside it, then advance
// the processed watermark (so Sync returns only after publication). The
// dispatched publications go back to the engine with the next batch.
func (sp *ShardedPipeline) drain(sh *shard) {
	defer sp.wg.Done()
	var done []pub
	for batch := range sh.ch {
		sh.emu.Lock()
		pubs := sh.eng.processBatch(batch, sh, done)
		sh.emu.Unlock()
		sp.dispatch(pubs)
		done = pubs
		n := uint64(len(batch))
		select {
		case sh.free <- batch[:0]:
		default:
		}
		sh.batches.Add(1)
		sh.processed.Add(n)
		sh.syncMu.Lock()
		sh.syncCond.Broadcast()
		sh.syncMu.Unlock()
	}
}

// enqueue appends one sample to the shard's pending batch, flushing it to
// the queue when full. Samples offered after Close are rejected (counted).
func (sp *ShardedPipeline) enqueue(sh *shard, q qsample) {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		sh.rejected.Add(1)
		return
	}
	sh.pending = append(sh.pending, q)
	sh.enqueued.Add(1)
	if len(sh.pending) >= sp.batch {
		sh.flushLocked()
	}
	sh.mu.Unlock()
}

// flushLocked hands the pending batch to the shard goroutine. A full
// queue blocks the producer (counted as a stall) instead of dropping.
// Callers hold sh.mu; the consumer never takes it, so the send always
// completes.
func (sh *shard) flushLocked() {
	if len(sh.pending) == 0 {
		return
	}
	batch := sh.pending
	select {
	case sh.ch <- batch:
	default:
		sh.stalls.Add(1)
		sh.ch <- batch
	}
	select {
	case buf := <-sh.free:
		sh.pending = buf
	default:
		sh.pending = make([]qsample, 0, cap(batch))
	}
}

// Ingest feeds one sample by site name. Like Pipeline.Ingest it never
// panics and never rejects the stream; the sample is applied when its
// batch drains. The Values slice must not be mutated until then
// (Sync/Flush guarantee it).
func (sp *ShardedPipeline) Ingest(s Sample) {
	sp.enqueue(sp.lane(s.Site), qsample{site: s.Site, tier: s.Tier, time: s.Time, vecs: [server.NumTiers][]float64{s.Values}})
}

// Register resolves a site to its shard once and returns the handle the
// fast path ingests through, creating the site if needed. Registering
// the same name again returns the same ref.
func (sp *ShardedPipeline) Register(site string) SiteRef {
	shardID := SiteShard(site, len(sp.shards))
	sh := sp.shards[shardID]
	sh.emu.Lock()
	i := sh.eng.site(site)
	sh.emu.Unlock()
	return SiteRef{shard: int32(shardID), index: i + 1}
}

// submitBatch hands a producer-built batch straight to the shard queue and
// returns a recycled buffer for the producer to refill. The shard's
// per-sample pending batch is flushed first, so one producer mixing the
// two paths keeps its stream ordered. A full queue blocks (counted as a
// stall); a closed shard counts the whole batch as rejected.
func (sp *ShardedPipeline) submitBatch(sh *shard, batch []qsample) []qsample {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		sh.rejected.Add(uint64(len(batch)))
		for k := range batch {
			if f := batch[k].frame; f != nil {
				repay([]*loan{f})
			}
		}
		return batch[:0]
	}
	sh.flushLocked()
	sh.enqueued.Add(uint64(len(batch)))
	select {
	case sh.ch <- batch:
	default:
		sh.stalls.Add(1)
		sh.ch <- batch
	}
	sh.mu.Unlock()
	select {
	case buf := <-sh.free:
		return buf[:0]
	default:
		return make([]qsample, 0, sp.batch)
	}
}

// Batcher accumulates ref-ingested site scrapes into producer-local
// per-shard batches, taking each shard's lock once per batchSize scrapes
// instead of once per sample — the fleet-scale hot path. A Batcher serves
// exactly one producer goroutine and its stream is ordered with respect to
// itself; samples stay invisible to the pipeline (and to Sync) until the
// batch fills or Flush is called, so call Flush before
// ShardedPipeline.Sync, Flush, or Close. Do not interleave Batcher.AddSite
// with direct Ingest calls for the same site: the two paths buffer
// independently and their relative order is fixed only at submit time.
type Batcher struct {
	sp  *ShardedPipeline
	buf [][]qsample
}

// NewBatcher returns an empty Batcher for one producer goroutine.
func (sp *ShardedPipeline) NewBatcher() *Batcher {
	return &Batcher{sp: sp, buf: make([][]qsample, len(sp.shards))}
}

// AddSite enqueues one fused site scrape: every tier's vector for one
// timestamp in a single queue slot. The shard applies it exactly as
// NumTiers sequential Ingest calls in tier order — same counters, same
// windows, same decisions — but the per-sample prolog (queue slot,
// time validation, window index) is paid once per site instead of once
// per tier, which is what makes the 100k-site scale leg go. The vectors
// must not be mutated until the engine has read them, before the next
// Sync returns.
func (b *Batcher) AddSite(ref SiteRef, time float64, vecs [server.NumTiers][]float64) {
	b.addSite(ref, time, vecs, nil)
}

// addSite is AddSite carrying a pooled frame on the frame's last scrape:
// the frame goes back to its pool once the shard has applied the scrape
// or the scrape is dropped (a bad ref here, a closed shard at submit).
func (b *Batcher) addSite(ref SiteRef, time float64, vecs [server.NumTiers][]float64, frame *loan) {
	s := int(ref.shard)
	if ref.index <= 0 || s < 0 || s >= len(b.buf) {
		b.sp.badRefs.Add(1)
		if frame != nil {
			repay([]*loan{frame})
		}
		return
	}
	buf := b.buf[s]
	if buf == nil {
		buf = make([]qsample, 0, b.sp.batch)
	}
	buf = append(buf, qsample{idx: ref.index, fused: true, time: time, vecs: vecs, frame: frame})
	if len(buf) >= b.sp.batch {
		buf = b.sp.submitBatch(b.sp.shards[s], buf)
	}
	b.buf[s] = buf
}

// Flush submits every partial batch the Batcher holds.
func (b *Batcher) Flush() {
	for s, buf := range b.buf {
		if len(buf) > 0 {
			b.buf[s] = b.sp.submitBatch(b.sp.shards[s], buf)
		}
	}
}

// waitProcessed blocks until the shard has applied (and published) at
// least target samples.
func (sh *shard) waitProcessed(target uint64) {
	if sh.processed.Load() >= target {
		return
	}
	sh.syncMu.Lock()
	for sh.processed.Load() < target {
		sh.syncCond.Wait()
	}
	sh.syncMu.Unlock()
}

// Sync flushes every shard's partial batch and waits until every sample
// accepted before the call has been applied and its decisions published.
// Do not call it from a pipeline callback (it would wait on the shard
// goroutine running the callback).
//
// The per-shard targets live on the caller's stack (Config caps the
// geometry at MaxShards), so concurrent callers share nothing and a Sync
// allocates nothing.
func (sp *ShardedPipeline) Sync() {
	var targets [MaxShards]uint64
	for i, sh := range sp.shards {
		sh.mu.Lock()
		sh.flushLocked()
		targets[i] = sh.enqueued.Load()
		sh.mu.Unlock()
	}
	for i, sh := range sp.shards {
		sh.waitProcessed(targets[i])
	}
}

// Flush syncs, then force-closes every site's in-progress window,
// emitting whatever decisions the staleness budget allows. Like
// Pipeline.Flush it is the fleet-wide end of stream, not a per-site one:
// it truncates the open window of every site, whoever feeds it. Not
// callable from callbacks.
func (sp *ShardedPipeline) Flush() {
	sp.Sync()
	sp.flushWindows()
}

// Close drains every queued sample, then stops the shard goroutines.
// Samples offered afterwards are rejected and counted. Close does not
// force-close open windows — call Flush first for end-of-stream
// decisions. Not callable from callbacks.
func (sp *ShardedPipeline) Close() {
	if !sp.closed.CompareAndSwap(false, true) {
		return
	}
	for _, sh := range sp.shards {
		sh.mu.Lock()
		sh.closed = true
		sh.flushLocked()
		sh.mu.Unlock()
		close(sh.ch)
	}
	sp.wg.Wait()
}

// ShardStats is a snapshot of one shard's queue and batch counters.
type ShardStats struct {
	Shard          int
	Sites          int
	Enqueued       uint64 // samples accepted into the batch queue
	Processed      uint64 // samples applied by the shard goroutine
	Batches        uint64 // batches drained
	Stalls         uint64 // full-queue waits producers blocked through
	RejectedClosed uint64 // samples offered after Close
	RejectedRef    uint64 // invalid or unresolvable SiteRefs
	QueueDepth     uint64 // Enqueued - Processed at snapshot time
}

// ShardStats snapshots every shard's counters, in shard order.
func (sp *ShardedPipeline) ShardStats() []ShardStats {
	out := make([]ShardStats, len(sp.shards))
	for k, sh := range sp.shards {
		s := ShardStats{
			Shard:          k,
			Processed:      sh.processed.Load(),
			Enqueued:       sh.enqueued.Load(),
			Batches:        sh.batches.Load(),
			Stalls:         sh.stalls.Load(),
			RejectedClosed: sh.rejected.Load(),
			RejectedRef:    sh.badRefs.Load(),
		}
		if s.Enqueued > s.Processed {
			s.QueueDepth = s.Enqueued - s.Processed
		}
		sh.emu.Lock()
		s.Sites = len(sh.eng.recs)
		sh.emu.Unlock()
		out[k] = s
	}
	return out
}

// Totals merges the per-shard counters into one snapshot (Shard = -1).
// Producer-side ref rejections, which have no shard, are folded into
// RejectedRef here.
func (sp *ShardedPipeline) Totals() ShardStats {
	t := ShardStats{Shard: -1, RejectedRef: sp.badRefs.Load()}
	for _, s := range sp.ShardStats() {
		t.Sites += s.Sites
		t.Enqueued += s.Enqueued
		t.Processed += s.Processed
		t.Batches += s.Batches
		t.Stalls += s.Stalls
		t.RejectedClosed += s.RejectedClosed
		t.RejectedRef += s.RejectedRef
		t.QueueDepth += s.QueueDepth
	}
	return t
}

// WriteMetrics renders the per-site serving counters plus the per-shard
// queue families in Prometheus text exposition format.
func (sp *ShardedPipeline) WriteMetrics(w io.Writer) error {
	if err := sp.lanes.WriteMetrics(w); err != nil {
		return err
	}
	return writeShardMetrics(w, sp.ShardStats())
}
