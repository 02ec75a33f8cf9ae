package main

import (
	"fmt"
	"time"

	"hpcap/internal/serve"
	"hpcap/internal/wire"
)

// frameSamples is the scrapes a site packs into one frame, the agent
// default. Segment lengths are multiples of it, so a barrier never finds
// a half-built frame.
const frameSamples = 5

// netConns is the number of agent connections the sites are split over:
// the sandbox has two processors, and the generator may not outnumber them.
const netConns = 2

// netStats sums the transport's exported counters over one phase.
type netStats struct {
	framesOffered uint64
	sender        wire.SenderStats
	server        serve.ServerStats
	frames        uint64 // transport: accepted for ingest
	samples       uint64 // transport: scrapes unpacked
	dups          uint64
	reordered     uint64
	seqGaps       uint64
	lostFrames    uint64
}

// netPath is the agent-to-server path: wire.Sender → loopback TCP →
// serve.FrameServer → serve.Ingest → the sharded pipeline. A barrier
// ends the agents' session (senders drained and closed, server closed,
// which flushes each connection's ingest lane), so the next round dials
// a fresh server; the Ingest's per-site sequence table lives across
// sessions, as it does across agent reconnects.
type netPath struct {
	f     *fleet
	sp    *serve.ShardedPipeline
	ing   *serve.Ingest
	hook  func([]byte) error
	flush bool // wait for the send queues after every round

	fs      *serve.FrameServer
	senders [netConns]*wire.Sender
	pending [][]wire.Sample
	seq     []uint64
	st      pathStats
}

func newNetPath(f *fleet, sp *serve.ShardedPipeline, flushEachRound bool, hook func([]byte) error) *netPath {
	p := &netPath{
		f: f, sp: sp, ing: serve.NewIngest(sp), hook: hook, flush: flushEachRound,
		pending: make([][]wire.Sample, len(f.names)),
		seq:     make([]uint64, len(f.names)),
	}
	for i := range p.pending {
		p.pending[i] = make([]wire.Sample, 0, frameSamples)
	}
	return p
}

// dial opens a session: one server, netConns senders.
func (p *netPath) dial() error {
	fs, err := serve.NewFrameServer(serve.DefaultListenConfig(), p.ing, p.hook)
	if err != nil {
		return err
	}
	p.fs = fs
	cfg := wire.AgentConfig{
		FrameSamples: frameSamples,
		// Eight bursts of a sender's frames fit, so that only a stall of
		// half a second sheds load the pipeline had room for.
		QueueFrames: max(4*len(p.f.names), wire.DefaultAgentConfig().QueueFrames),
	}
	for c := range p.senders {
		if p.senders[c], err = wire.NewSender(fs.Addr().String(), cfg); err != nil {
			return err
		}
	}
	return nil
}

func (p *netPath) round(sec int, tr *tracer, parent int32) error {
	if p.fs == nil {
		if err := p.dial(); err != nil {
			return fmt.Errorf("open agent session: %w", err)
		}
	}
	ts := float64(sec)
	clean, faulty := p.f.at(sec)
	for i := range p.pending {
		s := clean
		if p.f.faulty[i] {
			s = faulty
		}
		p.pending[i] = append(p.pending[i], wire.Sample{Time: ts, Vecs: s})
		if len(p.pending[i]) < frameSamples {
			continue
		}
		frame := wire.Frame{Site: p.f.names[i], Seq: p.seq[i], Samples: p.pending[i]}
		sender := p.senders[i%netConns]
		p.st.net.framesOffered++
		if tr != nil && p.st.net.framesOffered%callSampleEvery == 0 {
			t0 := time.Now()
			sender.Send(&frame)
			t1 := time.Now()
			p.st.callNs += t1.Sub(t0).Nanoseconds()
			p.st.calls++
			if parent != 0 {
				tr.add("wire.Send", parent, sec, t0, t1, nil)
			}
		} else {
			sender.Send(&frame)
		}
		p.seq[i]++
		// Send has encoded the frame; its samples may be overwritten.
		p.pending[i] = p.pending[i][:0]
	}
	if p.flush {
		for _, s := range p.senders {
			s.Flush()
		}
	}
	return nil
}

func (p *netPath) barrier() error {
	if p.fs == nil {
		p.sp.Sync()
		return nil
	}
	var dialed uint64
	for c, s := range p.senders {
		s.Close()
		st := s.Stats()
		add(&p.st.net.sender, st)
		if st.Dials > st.DialFailures {
			dialed++ // a sender that was never handed a frame never dials
		}
		p.senders[c] = nil
	}
	p.fs.WaitConns(dialed)
	err := p.fs.Close()
	ss := p.fs.Stats()
	p.st.net.server.ConnsOpened += ss.ConnsOpened
	p.st.net.server.ConnsClosed += ss.ConnsClosed
	p.st.net.server.Frames += ss.Frames
	p.st.net.server.DecodeErrors += ss.DecodeErrors
	p.st.net.server.ReadErrors += ss.ReadErrors
	p.st.net.server.LogErrors += ss.LogErrors
	p.fs = nil
	p.sp.Sync()
	return err
}

// add accumulates one sender's counters.
func add(sum *wire.SenderStats, s wire.SenderStats) {
	sum.Enqueued += s.Enqueued
	sum.Sent += s.Sent
	sum.Retries += s.Retries
	sum.DroppedFull += s.DroppedFull
	sum.DroppedRetry += s.DroppedRetry
	sum.DroppedClosed += s.DroppedClosed
	sum.DroppedOversize += s.DroppedOversize
	sum.Dials += s.Dials
	sum.DialFailures += s.DialFailures
	sum.WriteFailures += s.WriteFailures
}

func (p *netPath) close() {
	if p.fs != nil {
		_ = p.barrier()
	}
	p.sp.Close()
}

func (p *netPath) pipeline() *serve.ShardedPipeline { return p.sp }

func (p *netPath) stats() pathStats {
	st := p.st
	for _, t := range p.ing.TransportStats() {
		st.net.frames += t.Frames
		st.net.samples += t.Samples
		st.net.dups += t.DupFrames
		st.net.reordered += t.OutOfOrder
		st.net.seqGaps += t.SeqGaps
		st.net.lostFrames += t.LostFrames
	}
	return st
}
