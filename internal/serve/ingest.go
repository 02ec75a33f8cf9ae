package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"hpcap/internal/wire"
)

// SiteTransport is the frame-level view of one site's feed: what the
// network delivered, as opposed to what the serving pipeline decided.
// The split matters operationally — a site can be transport-fresh but
// sample-stale (agent up, collectors wedged) or transport-stale but
// decision-healthy (link down, decisions coasting on the last window) —
// and the two call for different pages.
type SiteTransport struct {
	Site string

	Frames  uint64 // frames accepted for ingest
	Samples uint64 // fused scrapes unpacked from accepted frames

	DupFrames  uint64 // frames re-delivering the current sequence number
	OutOfOrder uint64 // frames arriving below the sequence high-water mark
	SeqGaps    uint64 // accepted frames that skipped ahead of the expected seq
	LostFrames uint64 // frames the gaps imply were never delivered

	LastSeq       uint64    // sequence high-water mark
	LastFrameTime float64   // stream time of the newest sample in the last accepted frame
	LastFrameAt   time.Time // wall clock of the last accepted frame (reporting only)
}

// siteTransport is the mutable table entry behind SiteTransport.
type siteTransport struct {
	stats SiteTransport
	ref   SiteRef
}

// Ingest is the network ingest entry point of a ShardedPipeline: it
// turns decoded wire frames into fused Batcher.AddSite calls, keeping
// per-site sequence accounting so duplicated and reordered frames from
// a lossy link are counted and dropped instead of corrupting the
// per-site stream order the pipeline's determinism depends on.
//
// One Ingest is shared by every connection of a FrameServer; sequence
// state survives agent reconnects, so a redelivered frame after a
// flap is still recognised as a duplicate. Accounting is keyed by the
// frame's site name — agents, not connections, own sites.
//
// Its site table is the only one on the network path: entries are never
// removed, so a connection lane resolves a decoded frame's site name to
// the entry's string and keeps the entry for the frame's accounting.
type Ingest struct {
	pipe *ShardedPipeline
	now  func() time.Time

	// frameMu orders a frame's commit (the write-ahead log append) and
	// its accounting and enqueue across lanes, so the log's frame order
	// is exactly the order ingest observed.
	frameMu sync.Mutex
	frames  framePool

	mu    sync.Mutex
	sites map[string]*siteTransport
}

// NewIngest builds the shared ingest front-end for a pipeline.
func NewIngest(pipe *ShardedPipeline) *Ingest {
	return &Ingest{pipe: pipe, now: time.Now, sites: make(map[string]*siteTransport)}
}

// site returns the transport entry, creating (and registering the site
// with the pipeline) on first use. Callers hold in.mu.
func (in *Ingest) site(name string) *siteTransport {
	st, ok := in.sites[name]
	if !ok {
		st = &siteTransport{stats: SiteTransport{Site: name}, ref: in.pipe.Register(name)}
		in.sites[name] = st
	}
	return st
}

// Conn opens a per-connection ingest lane with its own Batcher. Frames
// from one connection must be delivered to AcceptPayload or Accept in
// arrival order; the connection's goroutine owns the lane (no internal
// locking on the batching path beyond the shared sequence table).
func (in *Ingest) Conn() *ConnIngest {
	ci := &ConnIngest{ingest: in, batch: in.pipe.NewBatcher()}
	ci.dec.Site = ci.siteName
	return ci
}

// Transport returns one site's transport counters.
func (in *Ingest) Transport(site string) (SiteTransport, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	st, ok := in.sites[site]
	if !ok {
		return SiteTransport{}, false
	}
	return st.stats, true
}

// TransportStats snapshots every site's transport counters, ordered by
// site name.
func (in *Ingest) TransportStats() []SiteTransport {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]SiteTransport, 0, len(in.sites))
	for _, st := range in.sites {
		out = append(out, st.stats)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// ConnIngest is one connection's ingest lane: sequence-checks each
// frame against the shared transport table, then unpacks accepted
// frames into fused scrapes on its private Batcher.
type ConnIngest struct {
	ingest *Ingest
	batch  *Batcher
	dec    wire.Decoder
	st     *siteTransport // entry of the frame dec last decoded; nil if its site was new
	spare  []*loan        // frames lent to the lane and not in use
}

// siteName is the lane decoder's site resolver: the name's entry in the
// Ingest's table, kept for the frame's accounting, and its string.
// Converting name inside the map index does not allocate; only a site's
// first frame copies the name.
func (ci *ConnIngest) siteName(name []byte) string {
	in := ci.ingest
	in.mu.Lock()
	ci.st = in.sites[string(name)]
	in.mu.Unlock()
	if ci.st == nil {
		return string(name)
	}
	return ci.st.stats.Site
}

// AcceptPayload decodes one frame payload and ingests it — the one path
// for frames off a connection (FrameServer) and out of a write-ahead log
// on replay. The frame is decoded into a pooled frame that goes back to
// the pool when the shard has applied its last scrape, or at once when it
// carries none or is dropped, so steady-state ingest allocates nothing.
//
// commit, when non-nil, sees the payload of every well-formed frame
// before its accounting — the write-ahead log append — with the two
// ordered across lanes as one step; its error drops the frame unaccounted
// and is returned. A payload that does not decode returns an error
// wrapping wire.ErrFrame and leaves the lane as it was.
func (ci *ConnIngest) AcceptPayload(payload []byte, commit func(payload []byte) error) error {
	in := ci.ingest
	if len(ci.spare) == 0 {
		ci.spare = in.frames.lend(ci.spare, spareFrames)
	}
	l := ci.spare[len(ci.spare)-1]
	ci.spare = ci.spare[:len(ci.spare)-1]
	if err := ci.dec.DecodeInto(&l.Frame, payload); err != nil {
		ci.spare = append(ci.spare, l)
		return err
	}
	in.frameMu.Lock()
	defer in.frameMu.Unlock()
	if commit != nil {
		if err := commit(payload); err != nil {
			ci.spare = append(ci.spare, l)
			return fmt.Errorf("serve: commit frame: %w", err)
		}
	}
	ci.accept(ci.st, &l.Frame, l)
	return nil
}

// Accept runs one decoded frame through sequence accounting and, if it
// advances the site's stream, enqueues its samples. Returns false for
// frames dropped as duplicates or late reorderings — dropped frames are
// always counted, never silent. The frame stays the caller's: its
// vectors must not change until the pipeline has applied them (Close,
// then ShardedPipeline.Sync).
func (ci *ConnIngest) Accept(f *wire.Frame) bool { return ci.accept(nil, f, nil) }

// accept is Accept for a frame whose table entry may already be known
// (st) and which may be on loan from the frame pool (l, else nil).
func (ci *ConnIngest) accept(st *siteTransport, f *wire.Frame, l *loan) bool {
	in := ci.ingest
	in.mu.Lock()
	if st == nil {
		st = in.site(f.Site)
	}
	s := &st.stats
	switch {
	case s.Frames == 0:
		// First frame fixes the stream origin; the agent numbers from 0
		// but a mid-stream join (server restart without WAL) is legal.
		if f.Seq > 0 {
			s.SeqGaps++
			s.LostFrames += f.Seq
		}
	case f.Seq == s.LastSeq:
		s.DupFrames++
		in.mu.Unlock()
		ci.keep(l)
		return false
	case f.Seq < s.LastSeq:
		s.OutOfOrder++
		in.mu.Unlock()
		ci.keep(l)
		return false
	case f.Seq > s.LastSeq+1:
		s.SeqGaps++
		s.LostFrames += f.Seq - s.LastSeq - 1
	}
	s.LastSeq = f.Seq
	s.Frames++
	s.Samples += uint64(len(f.Samples))
	n := len(f.Samples)
	if n > 0 {
		s.LastFrameTime = f.Samples[n-1].Time
	}
	s.LastFrameAt = in.now()
	ref := st.ref
	in.mu.Unlock()

	if n == 0 {
		ci.keep(l)
		return true
	}
	for i := range f.Samples[:n-1] {
		ci.batch.AddSite(ref, f.Samples[i].Time, f.Samples[i].Vecs)
	}
	// The last scrape carries the frame: all of a frame's scrapes go
	// through this Batcher to the one shard of its site, in order, so
	// when the shard has applied the last it has read them all.
	last := &f.Samples[n-1]
	ci.batch.addSite(ref, last.Time, last.Vecs, l)
	return true
}

// keep puts a frame the lane decoded but did not enqueue back among its
// spares; nil is a frame the caller owns.
func (ci *ConnIngest) keep(l *loan) {
	if l != nil {
		ci.spare = append(ci.spare, l)
	}
}

// spareFrames is how many pooled frames a lane borrows at a time, so the
// pool's lock is taken once per that many frames decoded.
const spareFrames = 16

// framePool recycles the frames connection lanes decode into. It never
// holds more frames than were once on loan at the same time — bounded by
// the lanes' spares and Batchers and the shard queues.
type framePool struct {
	mu   sync.Mutex
	free []*loan
	lent int // frames on loan now, spares included
}

// loan is a decoded frame on loan from a framePool.
type loan struct {
	wire.Frame
	pool *framePool
	out  bool // on loan; guarded by pool.mu
}

// lend appends up to n pooled frames to dst, the most recently returned
// last, or one new frame when the pool has none.
func (p *framePool) lend(dst []*loan, n int) []*loan {
	p.mu.Lock()
	k := max(len(p.free)-n, 0)
	dst = append(dst, p.free[k:]...)
	clear(p.free[k:])
	p.free = p.free[:k]
	if len(dst) == 0 {
		dst = append(dst, &loan{pool: p})
	}
	for _, l := range dst {
		l.out = true
	}
	p.lent += len(dst)
	p.mu.Unlock()
	return dst
}

// repay hands frames back to their pools, taking each pool's lock once
// for a run of its frames. A second repayment of one loan would let two
// later frames share one slab, so it panics.
func repay(ls []*loan) {
	for len(ls) > 0 {
		p := ls[0].pool
		k := 0
		p.mu.Lock()
		for ; k < len(ls) && ls[k].pool == p && ls[k].out; k++ {
			ls[k].out = false
		}
		p.free = append(p.free, ls[:k]...)
		p.lent -= k
		p.mu.Unlock()
		if k < len(ls) && ls[k].pool == p {
			panic("serve: decoded frame released twice")
		}
		ls = ls[k:]
	}
}

// Close flushes the lane and returns its spare frames to the pool; the
// ConnIngest must not be used afterwards.
func (ci *ConnIngest) Close() {
	ci.batch.Flush()
	repay(ci.spare)
	clear(ci.spare)
	ci.spare = ci.spare[:0]
}

// transportMetric describes one exported transport counter/gauge.
type transportMetric struct {
	name  string
	kind  string
	help  string
	value func(SiteTransport) float64
}

var transportMetrics = []transportMetric{
	{"capserved_transport_frames_total", "counter", "Frames accepted for ingest.",
		func(s SiteTransport) float64 { return float64(s.Frames) }},
	{"capserved_transport_samples_total", "counter", "Fused scrapes unpacked from accepted frames.",
		func(s SiteTransport) float64 { return float64(s.Samples) }},
	{"capserved_transport_dup_frames_total", "counter", "Duplicate frames dropped.",
		func(s SiteTransport) float64 { return float64(s.DupFrames) }},
	{"capserved_transport_reordered_frames_total", "counter", "Late out-of-order frames dropped.",
		func(s SiteTransport) float64 { return float64(s.OutOfOrder) }},
	{"capserved_transport_seq_gaps_total", "counter", "Accepted frames that skipped ahead of the expected sequence.",
		func(s SiteTransport) float64 { return float64(s.SeqGaps) }},
	{"capserved_transport_lost_frames_total", "counter", "Frames sequence gaps imply were never delivered.",
		func(s SiteTransport) float64 { return float64(s.LostFrames) }},
	{"capserved_transport_last_seq", "gauge", "Sequence high-water mark.",
		func(s SiteTransport) float64 { return float64(s.LastSeq) }},
	{"capserved_transport_last_frame_time", "gauge", "Stream time of the newest ingested sample.",
		func(s SiteTransport) float64 { return s.LastFrameTime }},
}

// WriteTransportMetrics renders the per-site transport counters in
// Prometheus text exposition format, alongside WriteMetrics' families.
func (in *Ingest) WriteTransportMetrics(w io.Writer) error {
	stats := in.TransportStats()
	for _, m := range transportMetrics {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.kind); err != nil {
			return err
		}
		for _, s := range stats {
			if _, err := fmt.Fprintf(w, "%s{site=%q} %g\n", m.name, s.Site, m.value(s)); err != nil {
				return err
			}
		}
	}
	return nil
}
