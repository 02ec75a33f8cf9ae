// Package wire is the batched sample protocol between capagent edge
// collectors and the capserved decision daemon: the paper's premise is
// *online* measurement, and at production scale the counters are sampled
// where the hardware lives while the classifier runs wherever the
// operator can see the fleet. The protocol therefore treats the edge
// stream as a lossy, noisy channel the server must tolerate (BayesPerf,
// arXiv:2102.10837, documents exactly this failure mode for deployed
// counter pipelines): frames are sequenced per site so the receiver can
// count every gap, duplicate, and reordering instead of silently
// absorbing them.
//
// A Frame carries one site's fused scrapes — for each sampled second,
// every tier's metric vector under one timestamp — which maps 1:1 onto
// the sharded pipeline's fused ingest fast path (serve.Batcher.AddSite).
// On the stream, each frame is a uvarint length prefix followed by the
// payload AppendFrame produces; payloads are self-contained, so the same
// bytes double as the WAL record format (internal/wal) and as a capture
// format replayable through the Lab.
//
// Decoding never panics and never invents data: truncated, oversized, or
// garbage payloads return an error (the fuzz test pins this), and a
// successfully decoded frame carries its sequence number bit-exactly.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"

	"hpcap/internal/core"
	"hpcap/internal/server"
)

// Version is the frame format version byte; decoders reject others.
const Version = 1

// Protocol bounds. They guard the receiver against garbage length fields:
// nothing decoded may allocate beyond them.
const (
	// MaxSiteLen bounds the site-name field.
	MaxSiteLen = 256
	// MaxFrameSamples bounds the fused scrapes in one frame.
	MaxFrameSamples = 4096
	// MaxDim bounds one tier's metric-vector length.
	MaxDim = 4096
	// MaxFrameBytes bounds one encoded frame: Sender drops a longer
	// frame and ReadFrame rejects one.
	MaxFrameBytes = 1 << 20
)

// ErrFrame marks a malformed frame; every decode failure wraps it.
var ErrFrame = errors.New("malformed frame")

// Sample is one fused site scrape: every tier's 1-second metric vector
// under a single timestamp — the unit serve.Batcher.AddSite ingests.
type Sample struct {
	// Time is the sample timestamp in stream seconds.
	Time float64
	// Vecs holds one metric vector per tier, in the full collector
	// layout the serving monitor was trained on.
	Vecs [server.NumTiers][]float64
}

// Frame is one batch of fused scrapes from one site, sequenced so the
// receiver can account for every lost, duplicated, or reordered delivery.
type Frame struct {
	// Site names the monitored site the samples belong to.
	Site string
	// Seq is the per-site frame sequence number. Senders number frames
	// contiguously from 0; the receiver counts gaps (lost frames),
	// repeats (duplicates), and regressions (reordering) against it.
	Seq uint64
	// Samples are the fused scrapes, in stream order.
	Samples []Sample

	// slab backs the vectors DecodeInto carved; nil in any other frame.
	slab []float64
}

// AppendFrame encodes f and appends the payload to dst (no length
// prefix — Sender.Send adds the stream framing). The layout is:
//
//	version  byte
//	site     uvarint length + bytes
//	seq      uvarint
//	count    uvarint
//	samples  count × { time float64-bits LE8,
//	                   NumTiers × (dim uvarint + dim × float64-bits LE8) }
//
// A vector's dim × LE8 run is its memory on a little-endian host, so each
// vector is appended as one copy (floats_le.go); other hosts convert value
// by value (floats_be.go). The bytes are the same on every host.
func AppendFrame(dst []byte, f *Frame) []byte {
	dst = append(dst, Version)
	dst = binary.AppendUvarint(dst, uint64(len(f.Site)))
	dst = append(dst, f.Site...)
	dst = binary.AppendUvarint(dst, f.Seq)
	dst = binary.AppendUvarint(dst, uint64(len(f.Samples)))
	for i := range f.Samples {
		s := &f.Samples[i]
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.Time))
		for tier := range s.Vecs {
			dst = binary.AppendUvarint(dst, uint64(len(s.Vecs[tier])))
			dst = appendFloats(dst, s.Vecs[tier])
		}
	}
	return dst
}

// frameLen is len(AppendFrame(nil, f)) without encoding: what lets Send
// allocate a frame's buffer once, at its final size.
func frameLen(f *Frame) int {
	n := 1 + uvarintLen(uint64(len(f.Site))) + len(f.Site) +
		uvarintLen(f.Seq) + uvarintLen(uint64(len(f.Samples)))
	for i := range f.Samples {
		n += 8
		for _, vec := range f.Samples[i].Vecs {
			n += uvarintLen(uint64(len(vec))) + 8*len(vec)
		}
	}
	return n
}

// uvarintLen is the bytes binary.AppendUvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// cursor walks a payload with bounds checking; the first failed read
// poisons the rest of the walk.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("wire: %w: %s", ErrFrame, fmt.Sprintf(format, args...))
	}
}

func (c *cursor) uvarint(what string, max uint64) uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.fail("truncated %s", what)
		return 0
	}
	c.off += n
	if v > max {
		c.fail("%s %d exceeds %d", what, v, max)
		return 0
	}
	return v
}

// skip steps over n bytes that must be there. Callers bound n (MaxSiteLen,
// 8·MaxDim) before asking, so off+n cannot overflow.
func (c *cursor) skip(what string, n int) {
	if c.err != nil {
		return
	}
	if n > len(c.b)-c.off {
		c.fail("truncated %s", what)
		return
	}
	c.off += n
}

// Decoder decodes frames. The zero Decoder copies each frame's site name
// into a fresh string; one whose Site is set resolves the name through it
// instead, which is how serve's connection lanes take the name from the
// server's one site table without allocating. A Decoder is as safe for
// concurrent use as its Site — the connection lane that reads the stream
// owns it.
//
// Decode returns a self-owned frame: its []Sample and the one []float64
// slab every vector is carved from are allocated for it and shared with
// nothing else, so it may be held across any later decode. DecodeInto
// decodes into a caller's frame and reuses that frame's sample slice and
// slab, so a receiver that hands a frame back once its vectors have been
// read decodes without allocating: the vectors of the previous frame
// decoded into f are overwritten, and whoever read them must be done.
type Decoder struct {
	// Site, when set, returns the string a frame's site-name bytes stand
	// for. It is called once per successful decode, after the payload has
	// been validated; name aliases the payload.
	Site func(name []byte) string
}

// Decode parses one payload produced by AppendFrame into a new frame. It
// never panics; truncated, oversized, or trailing-garbage payloads return
// an error wrapping ErrFrame, and a nil error guarantees the returned
// frame (sequence number included) is exactly what the sender encoded.
func (d *Decoder) Decode(payload []byte) (Frame, error) {
	var f Frame
	if err := d.DecodeInto(&f, payload); err != nil {
		return Frame{}, err
	}
	f.slab = nil // self-owned: a decode into the copy must not overwrite these vectors
	return f, nil
}

// DecodeInto is Decode into f, reusing f's sample slice and slab when
// they are large enough. Nothing of what f held survives a nil error: a
// frame without samples has nil Samples, a vector of dim 0 is nil. On
// error f is left as it was.
//
// The payload is walked twice. The first walk checks every length field
// against the bytes actually present and allocates nothing, so a count or
// dim that promises more than the payload holds fails before any memory
// is sized by it; what the second walk allocates — at most one []Sample
// and one []float64 slab — is bounded by len(payload), never by a field.
// The second walk fills each vector with one copy from the payload on a
// little-endian host, as AppendFrame wrote it.
func (d *Decoder) DecodeInto(f *Frame, payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("wire: %w: empty payload", ErrFrame)
	}
	if payload[0] != Version {
		return fmt.Errorf("wire: %w: version %d, want %d", ErrFrame, payload[0], Version)
	}
	c := cursor{b: payload, off: 1}
	siteLen := int(c.uvarint("site length", MaxSiteLen))
	siteOff := c.off
	c.skip("site name", siteLen)
	seq := c.uvarint("sequence", math.MaxUint64)
	count := int(c.uvarint("sample count", MaxFrameSamples))
	body, floats := c.off, 0
	for i := 0; i < count && c.err == nil; i++ {
		c.skip("sample time", 8)
		for tier := 0; tier < int(server.NumTiers); tier++ {
			dim := int(c.uvarint("vector length", MaxDim))
			c.skip("vector", 8*dim)
			floats += dim
		}
	}
	if c.err != nil {
		return c.err
	}
	if c.off != len(payload) {
		return fmt.Errorf("wire: %w: %d trailing bytes", ErrFrame, len(payload)-c.off)
	}

	if name := payload[siteOff : siteOff+siteLen]; d.Site != nil {
		f.Site = d.Site(name)
	} else {
		f.Site = string(name)
	}
	f.Seq = seq
	if count == 0 {
		f.Samples = nil
		return nil
	}
	if cap(f.Samples) < count {
		f.Samples = make([]Sample, count)
	}
	f.Samples = f.Samples[:count]
	if cap(f.slab) < floats {
		f.slab = make([]float64, floats)
	}
	slab := f.slab[:floats]
	b := payload[body:]
	for i := range f.Samples {
		s := &f.Samples[i]
		s.Time = math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
		for tier := range s.Vecs {
			dim, n := binary.Uvarint(b)
			b = b[n:]
			if dim == 0 {
				s.Vecs[tier] = nil
				continue
			}
			vec := slab[:dim:dim]
			slab = slab[dim:]
			b = decodeFloats(vec, b)
			s.Vecs[tier] = vec
		}
	}
	return nil
}

// DecodeFrame is Decode on a zero Decoder: the one-shot call for a
// payload that arrives alone — a WAL record on replay, a capture file.
func DecodeFrame(payload []byte) (Frame, error) {
	var d Decoder
	return d.Decode(payload)
}

// AgentConfig tunes a Sender — the edge agent's half of the protocol.
// The zero value selects every default (DefaultAgentConfig); Validate
// reports each invalid field as an ErrBadConfig-wrapped error.
type AgentConfig struct {
	// FrameSamples is how many fused scrapes accumulate into one frame
	// before it is shipped. Larger frames amortize framing and syscalls;
	// smaller ones cut the server's transport-staleness lag. Zero
	// selects 5.
	FrameSamples int
	// QueueFrames bounds the send queue. A full queue drops the oldest
	// queued frame (counted) so the freshest samples keep flowing — the
	// channel is lossy by design; the server's sequence accounting and
	// health ladder absorb the gap. Zero selects 256.
	QueueFrames int
	// MaxRetries bounds write attempts per batch of queued frames after
	// the first; a batch failing 1+MaxRetries writes is dropped (each of
	// its frames counted) and the stream moves on. Zero selects 3;
	// negative selects 0.
	MaxRetries int
	// BackoffBase and BackoffMax shape the reconnect/retry backoff:
	// attempt n sleeps min(BackoffBase·2ⁿ⁻¹, BackoffMax). Zero selects
	// 100ms and 5s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// DialTimeout bounds one connection attempt. Zero selects 3s.
	DialTimeout time.Duration
	// WriteTimeout bounds one write — a batch of up to 64 KiB of queued
	// frames. Zero selects 5s.
	WriteTimeout time.Duration
}

// DefaultAgentConfig returns the defaults Validate and NewSender resolve
// zero fields to.
func DefaultAgentConfig() AgentConfig {
	return AgentConfig{
		FrameSamples: 5,
		QueueFrames:  256,
		MaxRetries:   3,
		BackoffBase:  100 * time.Millisecond,
		BackoffMax:   5 * time.Second,
		DialTimeout:  3 * time.Second,
		WriteTimeout: 5 * time.Second,
	}
}

// Validate reports every invalid field (after zero fields resolve to
// defaults) as an ErrBadConfig-wrapped error. It never panics.
func (c AgentConfig) Validate() []error {
	c = c.withDefaults()
	var errs []error
	if c.FrameSamples < 1 || c.FrameSamples > MaxFrameSamples {
		errs = append(errs, fmt.Errorf("wire: %w: frame samples %d outside 1..%d",
			core.ErrBadConfig, c.FrameSamples, MaxFrameSamples))
	}
	if c.QueueFrames < 1 {
		errs = append(errs, fmt.Errorf("wire: %w: queue frames %d must be positive",
			core.ErrBadConfig, c.QueueFrames))
	}
	if c.BackoffBase <= 0 {
		errs = append(errs, fmt.Errorf("wire: %w: backoff base %v must be positive",
			core.ErrBadConfig, c.BackoffBase))
	}
	if c.BackoffMax < c.BackoffBase {
		errs = append(errs, fmt.Errorf("wire: %w: backoff max %v below base %v",
			core.ErrBadConfig, c.BackoffMax, c.BackoffBase))
	}
	if c.DialTimeout <= 0 {
		errs = append(errs, fmt.Errorf("wire: %w: dial timeout %v must be positive",
			core.ErrBadConfig, c.DialTimeout))
	}
	if c.WriteTimeout <= 0 {
		errs = append(errs, fmt.Errorf("wire: %w: write timeout %v must be positive",
			core.ErrBadConfig, c.WriteTimeout))
	}
	return errs
}

// withDefaults resolves zero fields to DefaultAgentConfig values.
func (c AgentConfig) withDefaults() AgentConfig {
	d := DefaultAgentConfig()
	if c.FrameSamples == 0 {
		c.FrameSamples = d.FrameSamples
	}
	if c.QueueFrames == 0 {
		c.QueueFrames = d.QueueFrames
	}
	switch {
	case c.MaxRetries == 0:
		c.MaxRetries = d.MaxRetries
	case c.MaxRetries < 0:
		c.MaxRetries = 0
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = d.BackoffBase
	}
	if c.BackoffMax == 0 {
		c.BackoffMax = d.BackoffMax
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = d.DialTimeout
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = d.WriteTimeout
	}
	return c
}
