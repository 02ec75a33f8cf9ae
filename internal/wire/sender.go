package wire

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"time"

	"hpcap/internal/chunk"
)

// SenderStats counts what a Sender did with the frames offered to it.
type SenderStats struct {
	Enqueued uint64 // frames accepted into the send queue
	Sent     uint64 // frames written to the server
	Retries  uint64 // extra attempts at a batch of frames after a failure

	DroppedFull     uint64 // oldest frames evicted by a full queue
	DroppedRetry    uint64 // frames abandoned after exhausting retries
	DroppedClosed   uint64 // frames offered after Close
	DroppedOversize uint64 // frames exceeding MaxFrameBytes

	Dials         uint64 // connection attempts
	DialFailures  uint64
	WriteFailures uint64
}

// Dropped sums every frame the sender lost rather than delivered.
func (s SenderStats) Dropped() uint64 {
	return s.DroppedFull + s.DroppedRetry + s.DroppedClosed + s.DroppedOversize
}

// batchBytes bounds what the drain goroutine hands to one Write: every
// queued frame up to this many bytes, and always at least one frame.
const batchBytes = 64 << 10

// Sender is the agent's shipping half: a bounded queue of encoded frames
// drained by one goroutine that dials the server lazily and sheds load
// instead of wedging. The goroutine takes every frame queued since its
// last write (up to batchBytes) and delivers them with one Write under
// one deadline; that batch is also the retry unit, written whole on each
// of its bounded, exponentially backed-off attempts. A write that fails
// part-way may already have delivered the batch's first frames, so a
// retry can deliver them twice: the server's sequence accounting drops
// and counts the repeats (serve.SiteTransport), which is why frames are
// sequenced. A full queue evicts the *oldest* frame — the freshest
// samples always flow — and a batch that exhausts its retries is dropped
// and counted frame by frame. Both losses surface at the server as
// sequence gaps, which feed the site's transport staleness and health
// ladder; a flapping link therefore degrades the site's decisions
// instead of stalling the sampling loop.
//
// Send is safe for concurrent use; a site's frames keep their relative
// order (the queue is FIFO and a single goroutine drains it).
type Sender struct {
	addr string
	cfg  AgentConfig

	// dial and sleep are the sender's only environment touchpoints,
	// injectable by tests.
	dial  func(addr string, timeout time.Duration) (net.Conn, error)
	sleep func(time.Duration)

	mu       sync.Mutex
	cond     *sync.Cond
	ring     [][]byte       // length-prefixed frames; QueueFrames slots, oldest at head
	free     [][]byte       // buffers of frames written or evicted, for Send to reuse
	bufs     chunk.Of[byte] // where Send carves a buffer when free has none to fit
	head     int
	queued   int
	closed   bool
	inflight bool
	stats    SenderStats

	conn net.Conn // worker-owned; nil when disconnected
	wg   sync.WaitGroup
}

// NewSender validates the configuration and starts the drain goroutine.
// The server is dialed lazily, on the first queued frame.
func NewSender(addr string, cfg AgentConfig) (*Sender, error) {
	if errs := cfg.Validate(); len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	cfg = cfg.withDefaults()
	s := &Sender{
		addr: addr,
		cfg:  cfg,
		dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		},
		sleep: time.Sleep,
		ring:  make([][]byte, cfg.QueueFrames),
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(1)
	go s.drain()
	return s, nil
}

// Send encodes and enqueues one frame; f and its samples are the caller's
// again as soon as it returns. It never blocks: a full queue evicts the
// oldest queued frame (counted DroppedFull), an oversized or post-Close
// frame is dropped and counted.
//
// The frame is encoded here, not on the drain goroutine, because callers
// reuse the samples; once, into a buffer that already carries the
// stream's length prefix, so the drain only has to concatenate. The
// buffer is one a frame already written or evicted gave back, so once
// the queue has turned over Send allocates nothing; before that, new
// buffers are carved from the sender's chunk (see package chunk), one
// allocation per chunk.Carves frames.
func (s *Sender) Send(f *Frame) {
	n := frameLen(f)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.stats.DroppedClosed++
		return
	}
	if n > MaxFrameBytes {
		s.stats.DroppedOversize++
		return
	}
	if s.queued == len(s.ring) {
		// The oldest frame's slot is the one this frame lands in, and
		// its buffer the first in line for this frame's bytes.
		s.free = append(s.free, s.ring[s.head][:0])
		s.ring[s.head] = nil
		s.head = (s.head + 1) % len(s.ring)
		s.queued--
		s.stats.DroppedFull++
	}
	// The newest returned buffer, or a new one when it is too small; a
	// short one is let go, so the sender never holds more buffers than
	// its ring and the batch in flight. A new buffer has an eighth to
	// spare, so a frame that is a little longer — a sequence number
	// gaining a varint byte, a longer site name — still fits; it is
	// capacity-limited, so a frame that outgrows it never writes into a
	// neighbour.
	size := uvarintLen(uint64(n)) + n
	var buf []byte
	if k := len(s.free) - 1; k >= 0 {
		buf = s.free[k]
		s.free[k] = nil
		s.free = s.free[:k]
	}
	if cap(buf) < size {
		buf = s.bufs.Carve(size + size/8)[:0]
	}
	s.ring[(s.head+s.queued)%len(s.ring)] = AppendFrame(binary.AppendUvarint(buf, uint64(n)), f)
	s.queued++
	s.stats.Enqueued++
	s.cond.Signal()
}

// Stats returns a snapshot of the sender's counters.
func (s *Sender) Stats() SenderStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Flush blocks until every frame queued before the call has been sent or
// dropped.
func (s *Sender) Flush() {
	s.mu.Lock()
	for s.queued > 0 || s.inflight {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// Close drains the queue (each remaining batch still gets its bounded
// retries), stops the goroutine, and closes the connection. Frames
// offered afterwards are dropped and counted.
func (s *Sender) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// drain is the sender goroutine: take the queue's head frames as one
// batch, deliver it with bounded retry, repeat until closed and empty.
func (s *Sender) drain() {
	defer s.wg.Done()
	var (
		taken [][]byte // the batch's frames, popped under the lock
		batch []byte   // the same frames back to back: what one Write carries
	)
	for {
		s.mu.Lock()
		for s.queued == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.queued == 0 && s.closed {
			s.mu.Unlock()
			break
		}
		taken, batch = taken[:0], batch[:0]
		for size := 0; s.queued > 0; {
			framed := s.ring[s.head]
			if size += len(framed); size > batchBytes && len(taken) > 0 {
				break
			}
			taken = append(taken, framed)
			s.ring[s.head] = nil
			s.head = (s.head + 1) % len(s.ring)
			s.queued--
		}
		s.inflight = true
		s.mu.Unlock()

		for _, framed := range taken {
			batch = append(batch, framed...)
		}
		sent := s.sendBatch(batch)

		s.mu.Lock()
		s.inflight = false
		for k, framed := range taken {
			s.free = append(s.free, framed[:0])
			taken[k] = nil
		}
		if sent {
			s.stats.Sent += uint64(len(taken))
		} else {
			s.stats.DroppedRetry += uint64(len(taken))
		}
		s.cond.Broadcast()
		s.mu.Unlock()
	}
	if s.conn != nil {
		_ = s.conn.Close()
		s.conn = nil
	}
}

// sendBatch delivers one batch with up to 1+MaxRetries attempts, each a
// single Write of the whole batch. Each attempt dials if disconnected; a
// failed write tears the connection down so the next attempt redials —
// the server cannot resynchronise on a stream cut mid-frame. Backoff
// grows exponentially between attempts, capped at BackoffMax.
func (s *Sender) sendBatch(batch []byte) bool {
	for attempt := 0; attempt <= s.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			s.mu.Lock()
			s.stats.Retries++
			s.mu.Unlock()
			s.sleep(s.backoff(attempt))
		}
		if s.conn == nil {
			s.mu.Lock()
			s.stats.Dials++
			s.mu.Unlock()
			conn, err := s.dial(s.addr, s.cfg.DialTimeout)
			if err != nil {
				s.mu.Lock()
				s.stats.DialFailures++
				s.mu.Unlock()
				continue
			}
			s.conn = conn
		}
		_ = s.conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		if _, err := s.conn.Write(batch); err != nil {
			s.mu.Lock()
			s.stats.WriteFailures++
			s.mu.Unlock()
			_ = s.conn.Close()
			s.conn = nil
			continue
		}
		return true
	}
	return false
}

// backoff returns the sleep before the attempt-th retry (1-based).
func (s *Sender) backoff(attempt int) time.Duration {
	d := s.cfg.BackoffBase
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= s.cfg.BackoffMax {
			return s.cfg.BackoffMax
		}
	}
	if d > s.cfg.BackoffMax {
		d = s.cfg.BackoffMax
	}
	return d
}
