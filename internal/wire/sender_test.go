package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"
)

// scriptConn is a connection of the injectable network: writes land in the
// script's buffer, and the script can make any write fail to simulate a
// dead link.
type scriptConn struct {
	script *linkScript
}

// linkScript is the injectable network: it decides whether each dial and
// each write succeeds, and collects everything successfully written.
type linkScript struct {
	mu sync.Mutex
	// dialFailures makes the next n dials fail.
	dialFailures int
	// okWrites lets the next n writes through before writeFailures bites.
	okWrites int
	// writeFailures makes the next n writes fail (tearing the conn down).
	writeFailures int
	// tear makes a failing write deliver its first tear bytes before it
	// fails, into torn: what a connection that died mid-write had carried.
	tear int
	torn []byte
	// blockDial, when non-nil, parks successful dials until it is closed —
	// a deterministic way to hold the drain goroutine mid-batch.
	blockDial chan struct{}
	buf       bytes.Buffer
	// writes is the size of every Write call, failed ones included, and
	// deadlines the number of write deadlines set: one of each per batch.
	writes    []int
	deadlines int
	sleeps    []time.Duration
}

func (l *linkScript) dial(addr string, timeout time.Duration) (net.Conn, error) {
	l.mu.Lock()
	if l.dialFailures > 0 {
		l.dialFailures--
		l.mu.Unlock()
		return nil, errors.New("script: dial refused")
	}
	block := l.blockDial
	l.mu.Unlock()
	if block != nil {
		<-block
	}
	return &scriptConn{script: l}, nil
}

func (l *linkScript) sleep(d time.Duration) {
	l.mu.Lock()
	l.sleeps = append(l.sleeps, d)
	l.mu.Unlock()
}

func (l *linkScript) frames(t *testing.T) []Frame {
	t.Helper()
	l.mu.Lock()
	data := append([]byte(nil), l.buf.Bytes()...)
	l.mu.Unlock()
	r := bufio.NewReader(bytes.NewReader(data))
	var out []Frame
	for {
		payload, err := ReadFrame(r, nil)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("script stream corrupt: %v", err)
		}
		f, err := DecodeFrame(payload)
		if err != nil {
			t.Fatalf("script frame corrupt: %v", err)
		}
		out = append(out, f)
	}
}

func (c *scriptConn) Write(p []byte) (int, error) {
	l := c.script
	l.mu.Lock()
	defer l.mu.Unlock()
	l.writes = append(l.writes, len(p))
	switch {
	case l.okWrites > 0:
		l.okWrites--
	case l.writeFailures > 0:
		l.writeFailures--
		n := min(l.tear, len(p))
		l.torn = append(l.torn, p[:n]...)
		return n, errors.New("script: write reset")
	}
	return l.buf.Write(p)
}

func (c *scriptConn) Read(p []byte) (int, error)        { return 0, io.EOF }
func (c *scriptConn) Close() error                      { return nil }
func (c *scriptConn) LocalAddr() net.Addr               { return nil }
func (c *scriptConn) RemoteAddr() net.Addr              { return nil }
func (c *scriptConn) SetDeadline(t time.Time) error     { return nil }
func (c *scriptConn) SetReadDeadline(t time.Time) error { return nil }
func (c *scriptConn) SetWriteDeadline(t time.Time) error {
	c.script.mu.Lock()
	c.script.deadlines++
	c.script.mu.Unlock()
	return nil
}

// holdDrain sends frame seq 0 and returns once the drain goroutine is
// parked inside its dial with that frame as its whole batch. Everything
// sent before release() queues behind it and leaves as the next batch.
func holdDrain(t *testing.T, s *Sender, script *linkScript) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	script.mu.Lock()
	script.blockDial = gate
	script.mu.Unlock()
	s.Send(&Frame{Site: "a", Seq: 0})
	for s.Stats().Dials == 0 {
		time.Sleep(time.Millisecond)
	}
	return func() {
		script.mu.Lock()
		script.blockDial = nil
		script.mu.Unlock()
		close(gate)
	}
}

// wantSeqs fails unless got carries exactly the sequence numbers want, in
// order.
func wantSeqs(t *testing.T, got []Frame, want ...uint64) {
	t.Helper()
	seqs := make([]uint64, len(got))
	for i, f := range got {
		seqs[i] = f.Seq
	}
	if !slices.Equal(seqs, want) {
		t.Fatalf("delivered seqs %v, want %v", seqs, want)
	}
}

// newScriptedSender builds a sender wired to an in-memory link script.
func newScriptedSender(t *testing.T, cfg AgentConfig) (*Sender, *linkScript) {
	t.Helper()
	s, err := NewSender("script:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	script := &linkScript{}
	// The drain goroutine dials lazily on the first frame, so rewiring
	// right after construction is race-free as long as nothing was sent.
	s.dial = script.dial
	s.sleep = script.sleep
	return s, script
}

func TestSenderDeliversInOrder(t *testing.T) {
	s, script := newScriptedSender(t, AgentConfig{})
	for seq := uint64(0); seq < 10; seq++ {
		s.Send(&Frame{Site: "a", Seq: seq})
	}
	s.Close()
	got := script.frames(t)
	if len(got) != 10 {
		t.Fatalf("delivered %d frames, want 10", len(got))
	}
	for i, f := range got {
		if f.Seq != uint64(i) {
			t.Errorf("frame %d has seq %d: order not preserved", i, f.Seq)
		}
	}
	st := s.Stats()
	if st.Sent != 10 || st.Dropped() != 0 || st.Dials != 1 {
		t.Errorf("stats %+v: want 10 sent, 0 dropped, 1 dial", st)
	}
}

func TestSenderRetriesThenDelivers(t *testing.T) {
	s, script := newScriptedSender(t, AgentConfig{MaxRetries: 3})
	script.dialFailures = 1
	script.writeFailures = 1
	s.Send(&Frame{Site: "a", Seq: 0})
	s.Flush()
	got := script.frames(t)
	if len(got) != 1 || got[0].Seq != 0 {
		t.Fatalf("frames %+v, want the one frame delivered", got)
	}
	st := s.Stats()
	if st.Sent != 1 || st.Retries != 2 || st.DialFailures != 1 || st.WriteFailures != 1 {
		t.Errorf("stats %+v: want 1 sent after 1 dial failure + 1 write failure", st)
	}
	if len(script.sleeps) != 2 {
		t.Errorf("%d backoff sleeps, want 2", len(script.sleeps))
	}
	s.Close()
}

func TestSenderDropsAfterRetryBudget(t *testing.T) {
	s, script := newScriptedSender(t, AgentConfig{MaxRetries: 2})
	// Link down for exactly the first frame's 1+2 attempts, then back up:
	// the next frame must still get through — a dead frame must not wedge
	// the stream.
	script.dialFailures = 3
	s.Send(&Frame{Site: "a", Seq: 0})
	s.Flush()
	s.Send(&Frame{Site: "a", Seq: 1})
	s.Close()
	got := script.frames(t)
	if len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("frames %+v, want only seq 1 (seq 0 dropped)", got)
	}
	st := s.Stats()
	if st.DroppedRetry != 1 || st.Sent != 1 {
		t.Errorf("stats %+v: want 1 retry-dropped, 1 sent", st)
	}
}

func TestSenderEvictsOldestWhenFull(t *testing.T) {
	s, script := newScriptedSender(t, AgentConfig{QueueFrames: 4})
	release := holdDrain(t, s, script)
	// Frame 0 is in flight; 11 more frames hit a ring of 4 slots, which
	// wraps nearly three times: each push past the fourth evicts exactly
	// the oldest queued frame, seqs 1..7 in turn.
	for seq := uint64(1); seq <= 11; seq++ {
		s.Send(&Frame{Site: "a", Seq: seq})
	}
	release()
	s.Close()

	st := s.Stats()
	if st.Enqueued != 12 {
		t.Errorf("enqueued %d, want 12", st.Enqueued)
	}
	if st.DroppedFull != 7 || st.Sent != 5 {
		t.Errorf("stats %+v: want 7 evicted, 5 sent", st)
	}
	if st.Enqueued != st.Sent+st.Dropped() {
		t.Errorf("stats %+v: enqueued frames neither sent nor counted dropped", st)
	}
	// The in-flight frame, then the newest 4 as one batch.
	wantSeqs(t, script.frames(t), 0, 8, 9, 10, 11)
	if len(script.writes) != 2 {
		t.Errorf("%d writes, want 2 (the held frame, then the surviving queue)", len(script.writes))
	}
}

// TestSenderBatchesQueuedFrames pins what one write carries: every frame
// queued since the last one, under one deadline, split only at batchBytes.
func TestSenderBatchesQueuedFrames(t *testing.T) {
	s, script := newScriptedSender(t, AgentConfig{})
	release := holdDrain(t, s, script)
	big := hpcFrame()
	size := uvarintLen(uint64(frameLen(&big))) + frameLen(&big)
	perBatch := batchBytes / size
	k := perBatch + 3 // one full batch and a remainder
	for seq := 1; seq <= k; seq++ {
		big.Seq = uint64(seq)
		s.Send(&big)
	}
	release()
	s.Close()

	// The held frame alone, a full batch, the remainder.
	if w := script.writes; len(w) != 3 || w[1] != perBatch*size || w[2] != 3*size || script.deadlines != 3 {
		t.Fatalf("writes %v under %d deadlines, want [_ %d %d] under 3", w, script.deadlines, perBatch*size, 3*size)
	}
	inOrder := make([]uint64, k+1)
	for i := range inOrder {
		inOrder[i] = uint64(i)
	}
	wantSeqs(t, script.frames(t), inOrder...)
	if st := s.Stats(); st.Sent != uint64(k+1) || st.Dropped() != 0 || st.Dials != 1 {
		t.Errorf("stats %+v: want %d sent, 0 dropped, 1 dial", st, k+1)
	}

	// A frame larger than batchBytes still travels, alone.
	s2, script2 := newScriptedSender(t, AgentConfig{})
	huge := Frame{Site: "a", Samples: make([]Sample, 40)}
	for i := range huge.Samples {
		huge.Samples[i].Vecs[0] = make([]float64, 256)
	}
	s2.Send(&huge)
	s2.Close()
	if len(script2.writes) != 1 || script2.writes[0] <= batchBytes {
		t.Errorf("oversize-batch frame: writes %v, want one above %d bytes", script2.writes, batchBytes)
	}
}

// TestSenderRetriesBatchWhole: the batch is the retry unit. A write that
// fails — here after delivering part of the batch to a connection that
// then died — is repeated whole on a fresh connection, so the stream the
// server keeps holds the batch once, in order.
func TestSenderRetriesBatchWhole(t *testing.T) {
	s, script := newScriptedSender(t, AgentConfig{MaxRetries: 3})
	script.okWrites, script.writeFailures, script.tear = 1, 1, 100
	release := holdDrain(t, s, script)
	const k = 6
	for seq := uint64(1); seq <= k; seq++ {
		s.Send(&Frame{Site: "a", Seq: seq})
	}
	release()
	s.Close()

	wantSeqs(t, script.frames(t), 0, 1, 2, 3, 4, 5, 6)
	if len(script.writes) != 3 || script.writes[1] != script.writes[2] {
		t.Fatalf("writes %v, want the held frame, the failed batch, the same batch again", script.writes)
	}
	// The dead connection carried the batch's first bytes and no others.
	whole := script.buf.Bytes()
	batch := whole[len(whole)-script.writes[2]:]
	if len(script.torn) == 0 || !bytes.Equal(script.torn, batch[:len(script.torn)]) {
		t.Errorf("torn bytes %x are not the head of the batch %x", script.torn, batch)
	}
	st := s.Stats()
	if st.Sent != k+1 || st.Retries != 1 || st.WriteFailures != 1 || st.Dials != 2 || st.Dropped() != 0 {
		t.Errorf("stats %+v: want %d sent after 1 retry of 1 failed write, 2 dials", st, k+1)
	}
}

// TestSenderDropsBatchAfterRetryBudget: a batch that exhausts its retries
// is dropped and counted frame by frame, and the stream moves on.
func TestSenderDropsBatchAfterRetryBudget(t *testing.T) {
	s, script := newScriptedSender(t, AgentConfig{MaxRetries: 2})
	script.okWrites, script.writeFailures = 1, 3 // the batch's 1+2 attempts
	release := holdDrain(t, s, script)
	const k = 5
	for seq := uint64(1); seq <= k; seq++ {
		s.Send(&Frame{Site: "a", Seq: seq})
	}
	release()
	s.Flush()
	s.Send(&Frame{Site: "a", Seq: k + 1})
	s.Close()

	wantSeqs(t, script.frames(t), 0, k+1)
	st := s.Stats()
	if st.DroppedRetry != k || st.Sent != 2 || st.Retries != 2 || st.WriteFailures != 3 {
		t.Errorf("stats %+v: want %d retry-dropped, 2 sent, 2 retries, 3 write failures", st, k)
	}
	if st.Enqueued != st.Sent+st.Dropped() {
		t.Errorf("stats %+v: enqueued frames neither sent nor counted dropped", st)
	}
}

func TestSenderDropsOversizeAndAfterClose(t *testing.T) {
	s, script := newScriptedSender(t, AgentConfig{})
	big := Frame{Site: "a", Seq: 0, Samples: []Sample{{Time: 1}}}
	big.Samples[0].Vecs[0] = make([]float64, MaxFrameBytes/8)
	if n := len(AppendFrame(nil, &big)); n <= MaxFrameBytes {
		t.Fatalf("big frame encodes to %d bytes, want > %d", n, MaxFrameBytes)
	}
	s.Send(&big)
	s.Send(&Frame{Site: "a", Seq: 1})
	s.Close()
	s.Send(&Frame{Site: "a", Seq: 2})
	st := s.Stats()
	if st.DroppedOversize != 1 || st.DroppedClosed != 1 || st.Sent != 1 {
		t.Errorf("stats %+v: want 1 oversize-dropped, 1 closed-dropped, 1 sent", st)
	}
	if got := script.frames(t); len(got) != 1 || got[0].Seq != 1 {
		t.Errorf("frames %+v, want only seq 1", got)
	}
}

func TestSenderBackoffCaps(t *testing.T) {
	s, err := NewSender("script:0", AgentConfig{
		BackoffBase: 100 * time.Millisecond,
		BackoffMax:  400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := []time.Duration{
		100 * time.Millisecond, // attempt 1
		200 * time.Millisecond, // attempt 2
		400 * time.Millisecond, // attempt 3 hits the cap
		400 * time.Millisecond, // and stays there
	}
	for i, w := range want {
		if got := s.backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestNewSenderRejectsBadConfig(t *testing.T) {
	_, err := NewSender("script:0", AgentConfig{FrameSamples: -1})
	if err == nil {
		t.Fatal("invalid config not rejected")
	}
}
