package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hpcap/internal/core"
	"hpcap/internal/wire"
)

// ListenConfig shapes a FrameServer.
type ListenConfig struct {
	// Addr is the TCP listen address. Port 0 picks a free port; read it
	// back with Addr() — that is how tests wire agent to server.
	Addr string

	// ReadTimeout bounds the wait for each frame; 0 means wait forever.
	// Deterministic tests leave it 0 and close connections explicitly.
	ReadTimeout time.Duration
}

// DefaultListenConfig returns the canonical FrameServer settings.
func DefaultListenConfig() ListenConfig {
	return ListenConfig{Addr: "127.0.0.1:0"}
}

// Validate returns an error wrapping core.ErrBadConfig when ReadTimeout
// is negative; every other value is servable.
func (c ListenConfig) Validate() []error {
	if c.ReadTimeout < 0 {
		return []error{fmt.Errorf("%w: listen: read timeout %v, need >= 0", core.ErrBadConfig, c.ReadTimeout)}
	}
	return nil
}

// withDefaults fills zero fields from DefaultListenConfig.
func (c ListenConfig) withDefaults() ListenConfig {
	def := DefaultListenConfig()
	if c.Addr == "" {
		c.Addr = def.Addr
	}
	return c
}

// readBufferBytes is each connection's read buffer: one read call brings
// in every frame of the batch a Sender writes (wire's batch bound is the
// same 64 KiB). The server holds this much per open connection, and
// nothing bounds how many connections it accepts.
const readBufferBytes = 64 << 10

// ServerStats counts a FrameServer's connection and frame traffic.
type ServerStats struct {
	ConnsOpened  uint64 // connections accepted
	ConnsClosed  uint64 // connections closed with their ingest lane flushed
	Frames       uint64 // well-formed frames handed to ingest
	DecodeErrors uint64 // frames rejected by wire.Decoder
	ReadErrors   uint64 // connections torn down mid-frame
	LogErrors    uint64 // OnFrame (write-ahead log) failures
}

// FrameServer accepts agent connections and pumps their frames into a
// shared Ingest. Each accepted frame passes through an optional OnFrame
// hook — the write-ahead log append — strictly before its samples reach
// the pipeline, and hook plus sequence-accounting run under one lock,
// so the log's frame order is exactly the order ingest observed. Replay
// the log through a fresh Ingest and the pipeline lands in the same
// state, byte for byte.
type FrameServer struct {
	cfg    ListenConfig
	ingest *Ingest
	ln     net.Listener

	// OnFrame, when set, sees every well-formed frame payload before
	// ingest. An error drops the connection: a server that cannot
	// persist must not keep consuming, or a crash would strand frames
	// the agent believes delivered.
	onFrame func(payload []byte) error

	mu     sync.Mutex
	cond   *sync.Cond // signalled under mu when connsClosed moves
	conns  map[net.Conn]struct{}
	closed bool

	// The ServerStats fields, as atomics: the per-frame ones are bumped by
	// every connection goroutine.
	connsOpened, connsClosed, frames, decodeErrors, readErrors, logErrors atomic.Uint64

	wg sync.WaitGroup
}

// NewFrameServer starts listening and serving. onFrame may be nil.
func NewFrameServer(cfg ListenConfig, ing *Ingest, onFrame func(payload []byte) error) (*FrameServer, error) {
	cfg = cfg.withDefaults()
	if errs := cfg.Validate(); len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", cfg.Addr, err)
	}
	fs := &FrameServer{
		cfg:     cfg,
		ingest:  ing,
		ln:      ln,
		onFrame: onFrame,
		conns:   make(map[net.Conn]struct{}),
	}
	fs.cond = sync.NewCond(&fs.mu)
	fs.wg.Add(1)
	go fs.acceptLoop()
	return fs, nil
}

// Addr returns the bound listen address.
func (fs *FrameServer) Addr() net.Addr { return fs.ln.Addr() }

// Stats returns a snapshot of the traffic counters.
func (fs *FrameServer) Stats() ServerStats {
	return ServerStats{
		ConnsOpened:  fs.connsOpened.Load(),
		ConnsClosed:  fs.connsClosed.Load(),
		Frames:       fs.frames.Load(),
		DecodeErrors: fs.decodeErrors.Load(),
		ReadErrors:   fs.readErrors.Load(),
		LogErrors:    fs.logErrors.Load(),
	}
}

// WaitConns blocks until n connections have opened and fully closed —
// how a bounded run knows every agent finished its stream. A connection
// counts as closed only once its ingest lane has flushed, so after
// WaitConns a pipeline Sync sees every sample the n connections carried.
func (fs *FrameServer) WaitConns(n uint64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for fs.connsClosed.Load() < n && !fs.closed {
		fs.cond.Wait()
	}
}

// Close stops accepting, tears down live connections, and waits for
// every connection goroutine to drain its batcher.
func (fs *FrameServer) Close() error {
	fs.mu.Lock()
	if fs.closed {
		fs.mu.Unlock()
		return nil
	}
	fs.closed = true
	err := fs.ln.Close()
	for c := range fs.conns {
		c.Close()
	}
	fs.cond.Broadcast()
	fs.mu.Unlock()
	fs.wg.Wait()
	return err
}

// acceptLoop admits connections until the listener closes.
func (fs *FrameServer) acceptLoop() {
	defer fs.wg.Done()
	for {
		conn, err := fs.ln.Accept()
		if err != nil {
			return
		}
		fs.mu.Lock()
		if fs.closed {
			fs.mu.Unlock()
			conn.Close()
			return
		}
		fs.conns[conn] = struct{}{}
		fs.connsOpened.Add(1)
		fs.wg.Add(1)
		fs.mu.Unlock()
		go fs.serveConn(conn)
	}
}

// serveConn runs one connection: pump its frames into the shared ingest,
// flush the lane's last partial batch, and only then count it closed.
func (fs *FrameServer) serveConn(conn net.Conn) {
	defer fs.wg.Done()
	lane := fs.ingest.Conn()
	err := fs.pump(conn, lane)
	conn.Close()
	lane.Close()

	fs.mu.Lock()
	delete(fs.conns, conn)
	// Clean EOF is a normal end of stream; so is anything Close provoked.
	if !errors.Is(err, io.EOF) && !fs.closed {
		fs.readErrors.Add(1)
	}
	fs.connsClosed.Add(1)
	fs.cond.Broadcast()
	fs.mu.Unlock()
}

// pump reads frames and hands each payload to the lane until the stream
// ends, and returns what ended it.
func (fs *FrameServer) pump(conn net.Conn, lane *ConnIngest) error {
	r := bufio.NewReaderSize(conn, readBufferBytes)
	var buf []byte
	for {
		if fs.cfg.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(fs.cfg.ReadTimeout))
		}
		payload, err := wire.ReadFrame(r, buf)
		if err != nil {
			return err
		}
		buf = payload[:0]
		if err := lane.AcceptPayload(payload, fs.onFrame); err != nil {
			if errors.Is(err, wire.ErrFrame) {
				// Framing survived, the payload did not: skip the frame
				// but keep the stream — the next length prefix is still
				// aligned.
				fs.decodeErrors.Add(1)
				continue
			}
			fs.logErrors.Add(1)
			return err
		}
		fs.frames.Add(1)
	}
}
