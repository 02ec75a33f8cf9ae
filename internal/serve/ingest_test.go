package serve_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hpcap/internal/serve"
	"hpcap/internal/server"
	"hpcap/internal/wal"
	"hpcap/internal/wire"
)

// traceFrames slices the recorded trace into fused wire frames for one
// site, perFrame scrapes per frame, sequenced from 0.
func traceFrames(tr [server.NumTiers][][]float64, times []float64, site string, perFrame int) []wire.Frame {
	var frames []wire.Frame
	cur := wire.Frame{Site: site}
	for i, ts := range times {
		var s wire.Sample
		s.Time = ts
		for tier := server.TierID(0); tier < server.NumTiers; tier++ {
			s.Vecs[tier] = tr[tier][i]
		}
		cur.Samples = append(cur.Samples, s)
		if len(cur.Samples) == perFrame {
			frames = append(frames, cur)
			cur = wire.Frame{Site: site, Seq: cur.Seq + 1}
		}
	}
	if len(cur.Samples) > 0 {
		frames = append(frames, cur)
	}
	return frames
}

// TestIngestSeqAccounting pins the sequence semantics frame by frame:
// mid-stream joins are legal but counted, duplicates and late frames are
// dropped and counted, gaps are counted and crossed. Nothing is silent.
func TestIngestSeqAccounting(t *testing.T) {
	_, mon, _ := fixture(t)
	sp, err := serve.NewShardedPipeline(mon, serve.Config{Window: 30}, serve.ShardConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	ing := serve.NewIngest(sp)
	wall := time.Unix(1000, 0)
	ing.SetNow(func() time.Time { return wall })
	lane := ing.Conn()
	defer lane.Close()

	check := func(step string, accepted, wantAccepted bool, want serve.SiteTransport) {
		t.Helper()
		if accepted != wantAccepted {
			t.Fatalf("%s: accepted=%t, want %t", step, accepted, wantAccepted)
		}
		got, ok := ing.Transport("a")
		if !ok {
			t.Fatalf("%s: site unknown to transport table", step)
		}
		want.Site = "a"
		want.LastFrameAt = got.LastFrameAt // checked separately
		if got != want {
			t.Fatalf("%s: transport %+v, want %+v", step, got, want)
		}
	}

	// A first frame with seq>0 is a mid-stream join: accepted, the gap
	// and implied losses counted.
	ok := lane.Accept(&wire.Frame{Site: "a", Seq: 3})
	check("mid-stream join", ok, true, serve.SiteTransport{
		Frames: 1, SeqGaps: 1, LostFrames: 3, LastSeq: 3})

	// In-order successor with samples: counters advance, freshness stamps.
	ok = lane.Accept(&wire.Frame{Site: "a", Seq: 4, Samples: []wire.Sample{{Time: 30}, {Time: 31}}})
	check("in-order", ok, true, serve.SiteTransport{
		Frames: 2, Samples: 2, SeqGaps: 1, LostFrames: 3, LastSeq: 4, LastFrameTime: 31})
	if got, _ := ing.Transport("a"); !got.LastFrameAt.Equal(wall) {
		t.Fatalf("LastFrameAt = %v, want injected clock %v", got.LastFrameAt, wall)
	}

	// Redelivery of the current frame: dropped, counted, nothing else moves.
	ok = lane.Accept(&wire.Frame{Site: "a", Seq: 4, Samples: []wire.Sample{{Time: 30}}})
	check("duplicate", ok, false, serve.SiteTransport{
		Frames: 2, Samples: 2, DupFrames: 1, SeqGaps: 1, LostFrames: 3, LastSeq: 4, LastFrameTime: 31})

	// A frame below the high-water mark: a late reordering, dropped.
	ok = lane.Accept(&wire.Frame{Site: "a", Seq: 2})
	check("out-of-order", ok, false, serve.SiteTransport{
		Frames: 2, Samples: 2, DupFrames: 1, OutOfOrder: 1, SeqGaps: 1, LostFrames: 3, LastSeq: 4, LastFrameTime: 31})

	// A skip ahead: accepted, the two missing frames counted as lost.
	ok = lane.Accept(&wire.Frame{Site: "a", Seq: 7})
	check("gap", ok, true, serve.SiteTransport{
		Frames: 3, Samples: 2, DupFrames: 1, OutOfOrder: 1, SeqGaps: 2, LostFrames: 5, LastSeq: 7, LastFrameTime: 31})

	// Unknown sites stay unknown; known ones list sorted.
	if _, ok := ing.Transport("nope"); ok {
		t.Error("unknown site reported as known")
	}
	lane.Accept(&wire.Frame{Site: "0-first", Seq: 0})
	stats := ing.TransportStats()
	if len(stats) != 2 || stats[0].Site != "0-first" || stats[1].Site != "a" {
		t.Errorf("TransportStats order: %+v", stats)
	}

	var buf bytes.Buffer
	if err := ing.WriteTransportMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`capserved_transport_frames_total{site="a"} 3`,
		`capserved_transport_lost_frames_total{site="a"} 5`,
		`capserved_transport_last_seq{site="a"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestFrameServerLoopback is the distributed-collection golden: the same
// recorded streams ingested directly (plain ShardedPipeline.Ingest, no
// network) and shipped as wire frames through a real Sender → TCP →
// FrameServer → Ingest chain must produce byte-identical per-site
// decision transcripts. The transport may batch, frame, and buffer, but
// it may not change a single decision.
func TestFrameServerLoopback(t *testing.T) {
	lab, mon, tr := fixture(t)
	window := lab.Scale.Window
	vecs := secondVectors(tr)
	sites := []string{"site-a", "site-b"}

	// Direct run: per-sample ingest, no wire anywhere.
	ref := newRecorder()
	sp1, err := serve.NewShardedPipeline(mon, ref.config(window), serve.ShardConfig{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, site := range sites {
		for i, ts := range tr.SecTimes {
			for tier := server.TierID(0); tier < server.NumTiers; tier++ {
				sp1.Ingest(serve.Sample{Site: site, Tier: tier, Time: ts, Values: vecs[tier][i]})
			}
		}
	}
	sp1.Flush()
	sp1.Close()

	// Network run: one Sender (one TCP connection) per site.
	rec := newRecorder()
	sp2, err := serve.NewShardedPipeline(mon, rec.config(window), serve.ShardConfig{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sp2.Close()
	ing := serve.NewIngest(sp2)
	fsrv, err := serve.NewFrameServer(serve.ListenConfig{}, ing, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := fsrv.Addr().String()
	wantFrames := make(map[string]uint64)
	for _, site := range sites {
		// The queue must hold the whole burst: the test enqueues far
		// faster than a real sampling loop, and eviction is load-shedding,
		// not an error — but here every frame must arrive.
		snd, err := wire.NewSender(addr, wire.AgentConfig{FrameSamples: 5, QueueFrames: 4096})
		if err != nil {
			t.Fatal(err)
		}
		frames := traceFrames(vecs, tr.SecTimes, site, 5)
		wantFrames[site] = uint64(len(frames))
		for i := range frames {
			snd.Send(&frames[i])
		}
		snd.Close()
		st := snd.Stats()
		if st.Dropped() != 0 || st.Sent != uint64(len(frames)) {
			t.Fatalf("%s sender lost frames on a clean loopback: %+v", site, st)
		}
	}
	fsrv.WaitConns(uint64(len(sites)))
	if err := fsrv.Close(); err != nil {
		t.Fatal(err)
	}
	sp2.Flush()

	for _, site := range sites {
		want, got := ref.transcript(site), rec.transcript(site)
		if want == "" {
			t.Fatalf("%s: empty reference transcript", site)
		}
		if got != want {
			t.Errorf("%s transcript diverged\n--- direct ---\n%s--- network ---\n%s", site, want, got)
		}
		tp, ok := ing.Transport(site)
		if !ok {
			t.Fatalf("%s missing from transport table", site)
		}
		if tp.Frames != wantFrames[site] || tp.DupFrames != 0 || tp.SeqGaps != 0 || tp.OutOfOrder != 0 {
			t.Errorf("%s transport not clean: %+v", site, tp)
		}
	}
	if st := fsrv.Stats(); st.ReadErrors != 0 || st.DecodeErrors != 0 || st.LogErrors != 0 {
		t.Errorf("server counted errors on a clean loopback: %+v", st)
	}
}

// TestWaitConnsFlushesLane: a connection counts as closed only after its
// ingest lane has flushed. Each session ships 60 scrapes — two windows,
// fewer than one Batcher batch, so every sample is still in the lane when
// the stream ends — and with the server left open, WaitConns then Sync
// must already see both decisions.
func TestWaitConnsFlushesLane(t *testing.T) {
	lab, mon, tr := fixture(t)
	window := lab.Scale.Window
	vecs := secondVectors(tr)
	rec := newRecorder()
	sp, err := serve.NewShardedPipeline(mon, rec.config(window), serve.ShardConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	fsrv, err := serve.NewFrameServer(serve.ListenConfig{}, serve.NewIngest(sp), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fsrv.Close()
	if batch, _ := serve.DefaultGeometry(); 2*window >= batch {
		t.Fatalf("two windows (%d scrapes) fill a batch: the lane would flush early", 2*window)
	}
	// Many sessions: the ordering this pins was a race, not a certainty.
	for n := 1; n <= 25; n++ {
		site := fmt.Sprintf("site-%d", n)
		snd, err := wire.NewSender(fsrv.Addr().String(), wire.AgentConfig{})
		if err != nil {
			t.Fatal(err)
		}
		frames := traceFrames(vecs, tr.SecTimes[:2*window], site, 5)
		for i := range frames {
			snd.Send(&frames[i])
		}
		snd.Close()
		fsrv.WaitConns(uint64(n))
		sp.Sync()
		rec.mu.Lock()
		got := len(rec.decisions[site])
		rec.mu.Unlock()
		if got != 2 {
			t.Fatalf("session %d: %d decisions after WaitConns+Sync, want 2", n, got)
		}
	}
}

// TestTornBatchRedelivery replays, byte for byte, what a Sender puts on
// the wire when a connection dies part-way through a batch
// (wire.TestSenderRetriesBatchWhole pins that side): the dead connection
// carries the head of the batch, cut mid-frame, and a fresh one carries
// the batch again, whole, then the rest of the stream. Every frame that
// arrived complete is either accepted or counted as a duplicate, the torn
// connection is counted, and the decisions are those of a clean run.
func TestTornBatchRedelivery(t *testing.T) {
	lab, mon, tr := fixture(t)
	window := lab.Scale.Window
	vecs := secondVectors(tr)
	sites := []string{"site-a", "site-b", "site-c"}
	lists := make([][]wire.Frame, len(sites))
	for i, site := range sites {
		lists[i] = traceFrames(vecs, tr.SecTimes, site, 5)
	}
	// Round-robin, so a batch of len(sites) frames holds one per site.
	order := roundRobin(lists)

	// Clean run: every frame once, in order.
	ref := newRecorder()
	spRef, err := serve.NewShardedPipeline(mon, ref.config(window), serve.ShardConfig{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	laneRef := serve.NewIngest(spRef).Conn()
	for i := range order {
		laneRef.Accept(&order[i])
	}
	laneRef.Close()
	spRef.Flush()
	spRef.Close()

	rec := newRecorder()
	sp, err := serve.NewShardedPipeline(mon, rec.config(window), serve.ShardConfig{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	ing := serve.NewIngest(sp)
	fsrv, err := serve.NewFrameServer(serve.ListenConfig{}, ing, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The batch is the three frames of round 10; its write dies after two
	// and a half of them.
	at := 10 * len(sites)
	batch := streamBytes(order[at : at+len(sites)])
	cut := len(streamBytes(order[at:at+2])) + 40
	sendConn(t, fsrv, 1, append(streamBytes(order[:at]), batch[:cut]...))
	sendConn(t, fsrv, 2, append(batch, streamBytes(order[at+len(sites):])...))
	if err := fsrv.Close(); err != nil {
		t.Fatal(err)
	}
	sp.Flush()

	written := uint64(len(order) + 2) // two frames arrived twice
	st := fsrv.Stats()
	if st.Frames != written || st.ReadErrors != 1 || st.DecodeErrors != 0 {
		t.Errorf("server stats %+v: want %d complete frames, 1 torn connection", st, written)
	}
	var accepted, dups uint64
	for _, tp := range ing.TransportStats() {
		accepted += tp.Frames
		dups += tp.DupFrames
		if tp.OutOfOrder != 0 || tp.SeqGaps != 0 || tp.LostFrames != 0 {
			t.Errorf("%s transport %+v: redelivery must read as duplicates only", tp.Site, tp)
		}
	}
	if accepted != uint64(len(order)) || dups != 2 || accepted+dups != written {
		t.Errorf("accepted %d + duplicates %d, want %d + 2 = %d frames written", accepted, dups, len(order), written)
	}
	for _, site := range sites {
		want, got := ref.transcript(site), rec.transcript(site)
		if want == "" {
			t.Fatalf("%s: empty reference transcript", site)
		}
		if got != want {
			t.Errorf("%s transcript diverged\n--- clean ---\n%s--- torn and redelivered ---\n%s", site, want, got)
		}
	}
}

// TestWALCrashReplay is the durability golden: a daemon killed mid-storm
// — WAL holding half the stream plus a torn record — must, after
// recovery (truncate the tear, replay the log, resume the live feed),
// finish with decision transcripts byte-identical to a daemon that never
// crashed. The WAL is appended strictly before ingest, so the log can
// only run ahead of the pipeline, never behind; replay therefore
// reconstructs at least everything the pre-crash pipeline decided.
func TestWALCrashReplay(t *testing.T) {
	lab, mon, tr := fixture(t)
	window := lab.Scale.Window
	vecs := secondVectors(tr)
	sites := []string{"site-a", "site-b"}

	// Interleave the two sites' frames round-robin, the arrival order two
	// concurrent agents would produce.
	var lists [][]wire.Frame
	for _, site := range sites {
		lists = append(lists, traceFrames(vecs, tr.SecTimes, site, 4))
	}
	order := roundRobin(lists)

	// Reference: every frame through an uninterrupted daemon.
	ref := newRecorder()
	spRef, err := serve.NewShardedPipeline(mon, ref.config(window), serve.ShardConfig{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	laneRef := serve.NewIngest(spRef).Conn()
	for i := range order {
		laneRef.Accept(&order[i])
	}
	laneRef.Close()
	spRef.Flush()
	spRef.Close()

	// Crashing daemon: WAL-append then ingest for the first half…
	walPath := filepath.Join(t.TempDir(), "crash.wal")
	log, recovered, err := wal.Open(walPath, wal.Config{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if recovered != 0 {
		t.Fatalf("fresh WAL recovered %d frames", recovered)
	}
	crash := newRecorder()
	spCrash, err := serve.NewShardedPipeline(mon, crash.config(window), serve.ShardConfig{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	laneCrash := serve.NewIngest(spCrash).Conn()
	half := len(order) / 2
	for i := 0; i < half; i++ {
		if err := laneCrash.AcceptPayload(wire.AppendFrame(nil, &order[i]), log.Append); err != nil {
			t.Fatal(err)
		}
	}
	// …then dies mid-Append of the next frame: a torn record on disk, the
	// in-memory pipeline state gone. (Close only reclaims the goroutines;
	// its decisions are discarded like a crashed process's would be.)
	next := wire.AppendFrame(nil, &order[half])
	torn := binary.AppendUvarint(nil, uint64(len(next)))
	torn = append(torn, next[:len(next)/2]...)
	fh, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.Write(torn); err != nil {
		t.Fatal(err)
	}
	fh.Close()
	spCrash.Close()

	// Recovery: reopen (truncates the tear), replay into a fresh
	// pipeline, then resume the live stream from the first unlogged frame.
	log2, recovered, err := wal.Open(walPath, wal.Config{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if recovered != half {
		t.Fatalf("recovered %d frames, want %d", recovered, half)
	}
	rec := newRecorder()
	spRec, err := serve.NewShardedPipeline(mon, rec.config(window), serve.ShardConfig{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	lane := serve.NewIngest(spRec).Conn()
	n, err := wal.Replay(walPath, wal.Config{}, func(payload []byte) error {
		if err := lane.AcceptPayload(payload, nil); err != nil {
			return fmt.Errorf("logged frame does not decode: %w", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != half {
		t.Fatalf("replayed %d frames, want %d", n, half)
	}
	for i := half; i < len(order); i++ {
		if err := lane.AcceptPayload(wire.AppendFrame(nil, &order[i]), log2.Append); err != nil {
			t.Fatal(err)
		}
	}
	lane.Close()
	spRec.Flush()
	spRec.Close()
	if err := log2.Close(); err != nil {
		t.Fatal(err)
	}

	for _, site := range sites {
		want, got := ref.transcript(site), rec.transcript(site)
		if want == "" {
			t.Fatalf("%s: empty reference transcript", site)
		}
		if got != want {
			t.Errorf("%s recovered transcript diverged\n--- uninterrupted ---\n%s--- recovered ---\n%s",
				site, want, got)
		}
	}

	// The healed WAL now holds the complete storm: replaying it alone
	// reproduces the full transcripts — the WAL doubles as a capture.
	cap2 := newRecorder()
	spCap, err := serve.NewShardedPipeline(mon, cap2.config(window), serve.ShardConfig{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	laneCap := serve.NewIngest(spCap).Conn()
	if n, err := wal.Replay(walPath, wal.Config{}, func(payload []byte) error {
		return laneCap.AcceptPayload(payload, nil)
	}); err != nil || n != len(order) {
		t.Fatalf("capture replay: n=%d err=%v, want %d frames", n, err, len(order))
	}
	laneCap.Close()
	spCap.Flush()
	spCap.Close()
	for _, site := range sites {
		if got := cap2.transcript(site); got != ref.transcript(site) {
			t.Errorf("%s capture-replay transcript diverged", site)
		}
	}
}

// distinctFrames slices the trace into each site's frames, as traceFrames
// does, but on copied vectors scaled and shifted by the frame's index
// across every site: no two frames share a float, so a frame overwritten
// before the shard has read it changes the window means it feeds.
func distinctFrames(tr [server.NumTiers][][]float64, times []float64, sites []string, perFrame int) [][]wire.Frame {
	lists := make([][]wire.Frame, len(sites))
	g := 0
	for i, site := range sites {
		lists[i] = traceFrames(tr, times, site, perFrame)
		for k := range lists[i] {
			g++
			eps := float64(g) * 1e-9
			for s := range lists[i][k].Samples {
				vs := &lists[i][k].Samples[s].Vecs
				for tier := range vs {
					vec := make([]float64, len(vs[tier]))
					for j, v := range vs[tier] {
						vec[j] = v*(1+eps) + eps
					}
					vs[tier] = vec
				}
			}
		}
	}
	return lists
}

// roundRobin interleaves the sites' frame lists one frame per site per
// round, the arrival order of concurrent agents.
func roundRobin(lists [][]wire.Frame) []wire.Frame {
	var order []wire.Frame
	for i := 0; ; i++ {
		n := len(order)
		for _, l := range lists {
			if i < len(l) {
				order = append(order, l[i])
			}
		}
		if len(order) == n {
			return order
		}
	}
}

// streamBytes is frames as a Sender puts them on the wire.
func streamBytes(frames []wire.Frame) []byte {
	var b []byte
	for i := range frames {
		payload := wire.AppendFrame(nil, &frames[i])
		b = append(binary.AppendUvarint(b, uint64(len(payload))), payload...)
	}
	return b
}

// sendConn writes b over one fresh connection, closes it, and waits until
// the server has closed conns connections in all.
func sendConn(t *testing.T, fsrv *serve.FrameServer, conns uint64, b []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", fsrv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(b); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	fsrv.WaitConns(conns)
}

// digestRecorder folds each site's decisions into a running FNV-1a hash
// of their sequence, time, verdict and window-mean vectors, bit for bit.
type digestRecorder struct {
	mu     sync.Mutex
	digest map[string]uint64
	n      map[string]int
}

func newDigestRecorder() *digestRecorder {
	return &digestRecorder{digest: make(map[string]uint64), n: make(map[string]int)}
}

// config records every decision, then runs hold (when set) on the shard
// goroutine before the shard may go on.
func (r *digestRecorder) config(window int, hold func()) serve.Config {
	return serve.Config{
		Window: window,
		OnDecision: func(d serve.Decision) {
			r.mu.Lock()
			h, ok := r.digest[d.Site]
			if !ok {
				h = 14695981039346656037
			}
			mix := func(x uint64) { h = (h ^ x) * 1099511628211 }
			mix(uint64(d.Seq))
			mix(math.Float64bits(d.Time))
			if d.Prediction.Overload {
				mix(1)
			}
			for _, vec := range d.Vectors {
				for _, v := range vec {
					mix(math.Float64bits(v))
				}
			}
			r.digest[d.Site] = h
			r.n[d.Site]++
			r.mu.Unlock()
			if hold != nil {
				hold()
			}
		},
	}
}

// same fails t unless every site decided as often, and on the same
// vectors, as in want.
func (r *digestRecorder) same(t *testing.T, want *digestRecorder, sites []string) {
	t.Helper()
	for _, site := range sites {
		if want.n[site] == 0 {
			t.Fatalf("%s: no reference decisions", site)
		}
		if r.n[site] != want.n[site] || r.digest[site] != want.digest[site] {
			t.Errorf("%s: %d decisions, digest %x; want %d, %x", site, r.n[site], r.digest[site], want.n[site], want.digest[site])
		}
	}
}

// TestPooledFrameOwnership: a connection lane decodes into pooled frames,
// and a frame goes back to the pool when the shard that applied its last
// scrape is done with it — never before, or the lane's next decode would
// overwrite vectors the engine has yet to read, and never twice, which
// panics. With one shard, one-sample batches and a one-batch queue, and
// OnDecision holding the shard while the lane decodes on, the decisions
// are, window means bit for bit, those of the same frames fed through a
// Batcher. Frames dropped as duplicates or reorderings, and frames offered
// to a closed pipeline, go back at once, and no frame stays on loan.
func TestPooledFrameOwnership(t *testing.T) {
	lab, mon, tr := fixture(t)
	window := lab.Scale.Window
	vecs := secondVectors(tr)
	sites := []string{"site-a", "site-b"}
	seconds := min(len(tr.SecTimes), 20*window)
	order := roundRobin(distinctFrames(vecs, tr.SecTimes[:seconds], sites, 5))
	at := 10 * len(sites) // a round boundary in the middle of the stream

	ref := newDigestRecorder()
	spRef := newSharded(t, mon, ref.config(window, nil), geometry{shards: 1, batch: 1, queue: 1})
	refs := make(map[string]serve.SiteRef)
	for _, site := range sites {
		refs[site] = spRef.Register(site)
	}
	b := spRef.NewBatcher()
	for _, f := range order {
		for _, s := range f.Samples {
			b.AddSite(refs[f.Site], s.Time, s.Vecs)
		}
	}
	b.Flush()
	spRef.Flush()
	spRef.Close()

	serveFrames := func(t *testing.T, rec *digestRecorder, hold func()) (*serve.ShardedPipeline, *serve.Ingest, *serve.FrameServer) {
		t.Helper()
		sp := newSharded(t, mon, rec.config(window, hold), geometry{shards: 1, batch: 1, queue: 1})
		t.Cleanup(sp.Close)
		ing := serve.NewIngest(sp)
		fsrv, err := serve.NewFrameServer(serve.ListenConfig{}, ing, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fsrv.Close() })
		return sp, ing, fsrv
	}
	noLoans := func(t *testing.T, ing *serve.Ingest, when string) {
		t.Helper()
		if lent, _ := ing.FramePool(); lent != 0 {
			t.Errorf("%s: %d frames still on loan", when, lent)
		}
	}

	t.Run("blocked shard", func(t *testing.T) {
		var fsrv *serve.FrameServer
		var mu sync.Mutex // orders the test's write of fsrv before the shard's reads
		hold := func() {
			// Keep the shard until the lane has taken another frame, or
			// for a bound when the full queue has stalled the lane.
			mu.Lock()
			fs := fsrv
			mu.Unlock()
			from := fs.Stats().Frames
			for deadline := time.Now().Add(20 * time.Millisecond); fs.Stats().Frames == from && time.Now().Before(deadline); {
				time.Sleep(100 * time.Microsecond)
			}
		}
		rec := newDigestRecorder()
		sp, ing, fs := serveFrames(t, rec, hold)
		mu.Lock()
		fsrv = fs
		mu.Unlock()
		sendConn(t, fs, 1, streamBytes(order))
		sp.Flush()
		rec.same(t, ref, sites)
		noLoans(t, ing, "after the stream")
		// The pool recycled: it never held more frames than the geometry
		// can have in flight at once, far fewer than the stream's.
		if _, made := ing.FramePool(); made > 8 {
			t.Errorf("pool made %d frames for a stream of %d", made, len(order))
		}
	})

	t.Run("torn redelivery", func(t *testing.T) {
		rec := newDigestRecorder()
		sp, ing, fsrv := serveFrames(t, rec, nil)
		// Round 10 is a batch of one frame per site; the first connection
		// dies one frame and 40 bytes into it.
		batch := streamBytes(order[at : at+len(sites)])
		cut := len(streamBytes(order[at:at+1])) + 40
		sendConn(t, fsrv, 1, append(streamBytes(order[:at]), batch[:cut]...))
		sp.Sync()
		noLoans(t, ing, "after the torn connection")
		// A reconnect carrying only frames already taken — round 9 again,
		// and round 10's first frame — is all reorderings and duplicates:
		// with nothing enqueued, every frame is back as the lane closes.
		sendConn(t, fsrv, 2, streamBytes(order[at-len(sites):at+1]))
		noLoans(t, ing, "after duplicates and reorderings")
		// Then the batch again, whole, and the rest of the stream.
		sendConn(t, fsrv, 3, append(batch, streamBytes(order[at+len(sites):])...))
		sp.Flush()
		rec.same(t, ref, sites)
		noLoans(t, ing, "after the stream")
		var accepted, dropped uint64
		for _, tp := range ing.TransportStats() {
			accepted += tp.Frames
			dropped += tp.DupFrames + tp.OutOfOrder
		}
		if accepted != uint64(len(order)) || dropped != uint64(len(sites)+2) {
			t.Errorf("accepted %d, dropped %d; want %d and %d", accepted, dropped, len(order), len(sites)+2)
		}
	})

	t.Run("closed pipeline", func(t *testing.T) {
		rec := newDigestRecorder()
		sp, ing, fsrv := serveFrames(t, rec, nil)
		sendConn(t, fsrv, 1, streamBytes(order[:at]))
		sp.Sync()
		sp.Close()
		sendConn(t, fsrv, 2, streamBytes(order[at:]))
		noLoans(t, ing, "after frames offered to a closed pipeline")
		var want uint64
		for _, f := range order[at:] {
			want += uint64(len(f.Samples))
		}
		if got := sp.Totals().RejectedClosed; got != want {
			t.Errorf("closed pipeline rejected %d scrapes, want %d", got, want)
		}
	})
}

// TestLoopbackSteadyStateAllocs: once warm, a frame allocates nothing on
// its way from Sender.Send through loopback TCP and a FrameServer into a
// two-shard pipeline — the sender's buffers and the server's decoded
// frames are all recycled. The window is longer than the run, so no
// decision, which owns freshly allocated window means by design, falls
// inside the count.
func TestLoopbackSteadyStateAllocs(t *testing.T) {
	_, mon, tr := fixture(t)
	vecs := secondVectors(tr)
	n := len(tr.SecTimes)
	const nSites, perFrame, queue = 64, 5, 1024
	const warm, measured = 4096, 12800
	// Short shard queues bound the frames in flight, so the warm-up has
	// already made every frame the measured stretch can need.
	batch, _ := serve.DefaultGeometry()
	sp := newSharded(t, mon, serve.Config{Window: 1 << 20}, geometry{shards: 2, batch: batch, queue: 512})
	defer sp.Close()
	fsrv, err := serve.NewFrameServer(serve.ListenConfig{}, serve.NewIngest(sp), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fsrv.Close()
	snd, err := wire.NewSender(fsrv.Addr().String(), wire.AgentConfig{FrameSamples: perFrame, QueueFrames: queue})
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()
	names := make([]string, nSites)
	for i := range names {
		names[i] = fmt.Sprintf("site-%06d", i)
	}
	samples := make([]wire.Sample, perFrame)
	send := func(from, to int) {
		for i := from; i < to; i++ {
			round := i / nSites
			for k := range samples {
				sec := round*perFrame + k
				samples[k].Time = float64(sec + 1)
				for tier := range samples[k].Vecs {
					samples[k].Vecs[tier] = vecs[tier][sec%n]
				}
			}
			snd.Send(&wire.Frame{Site: names[i%nSites], Seq: uint64(round), Samples: samples})
			if i%(queue/2) == queue/2-1 {
				snd.Flush()
			}
		}
		snd.Flush()
		for fsrv.Stats().Frames < uint64(to) {
			time.Sleep(time.Millisecond)
		}
		sp.Sync()
	}
	send(0, warm)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	send(warm, warm+measured)
	runtime.ReadMemStats(&m1)
	if st := snd.Stats(); st.Dropped() != 0 {
		t.Fatalf("sender dropped frames on a clean loopback: %+v", st)
	}
	per := float64(m1.Mallocs-m0.Mallocs) / measured
	t.Logf("%d allocations over %d frames", m1.Mallocs-m0.Mallocs, measured)
	if per >= 0.05 {
		t.Errorf("%.3f allocations per frame at steady state, want < 0.05", per)
	}
}
