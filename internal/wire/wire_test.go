package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"hpcap/internal/chunk"
	"hpcap/internal/core"
	"hpcap/internal/server"
)

// frameA returns a representative frame with mixed-dimension vectors and
// awkward float values.
func frameA() Frame {
	return Frame{
		Site: "site-1",
		Seq:  42,
		Samples: []Sample{
			{Time: 0, Vecs: [server.NumTiers][]float64{{1, 2, 3}, {4.5, -6.25}}},
			{Time: 29.5, Vecs: [server.NumTiers][]float64{{math.Inf(1), math.SmallestNonzeroFloat64}, {0}}},
		},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		frameA(),
		{Site: "", Seq: 0},
		{Site: strings.Repeat("s", MaxSiteLen), Seq: math.MaxUint64},
		{Site: "empty-vecs", Seq: 7, Samples: []Sample{{Time: 1}}},
	}
	for _, in := range frames {
		payload := AppendFrame(nil, &in)
		out, err := DecodeFrame(payload)
		if err != nil {
			t.Fatalf("decode %q seq %d: %v", in.Site, in.Seq, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("round trip mutated frame %q:\n in=%+v\nout=%+v", in.Site, in, out)
		}
	}
}

func TestDecodeFrameRejectsGarbage(t *testing.T) {
	good := AppendFrame(nil, &Frame{Site: "s", Seq: 3, Samples: []Sample{
		{Time: 1, Vecs: [server.NumTiers][]float64{{1}, {2}}},
	}})
	tests := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"bad version", append([]byte{Version + 1}, good[1:]...)},
		{"truncated mid-sample", good[:len(good)-3]},
		{"trailing garbage", append(append([]byte{}, good...), 0)},
		{"oversized site length", []byte{Version, 0xff, 0xff, 0x04}},
		{"oversized sample count", append(append([]byte{Version, 0}, 9), []byte{0xff, 0xff, 0x7f}...)},
	}
	for _, tt := range tests {
		f, err := DecodeFrame(tt.payload)
		if err == nil {
			t.Errorf("%s: decoded to %+v, want error", tt.name, f)
			continue
		}
		if !errors.Is(err, ErrFrame) {
			t.Errorf("%s: error %v does not wrap ErrFrame", tt.name, err)
		}
	}
}

// TestDecodeFramePreservesSeq pins the no-silent-seq-mutation guarantee
// across the uvarint encoding's width boundaries.
func TestDecodeFramePreservesSeq(t *testing.T) {
	for _, seq := range []uint64{0, 1, 127, 128, 1 << 20, 1 << 42, math.MaxUint64} {
		payload := AppendFrame(nil, &Frame{Site: "s", Seq: seq})
		f, err := DecodeFrame(payload)
		if err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		if f.Seq != seq {
			t.Errorf("seq %d decoded as %d", seq, f.Seq)
		}
	}
}

// framed returns payload as the stream carries it: behind its uvarint
// length prefix.
func framed(payload []byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(payload))), payload...)
}

func TestStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := [][]byte{
		AppendFrame(nil, &Frame{Site: "a", Seq: 0}),
		AppendFrame(nil, func() *Frame { f := frameA(); return &f }()),
		{},
	}
	for _, p := range want {
		buf.Write(framed(p))
	}
	r := bufio.NewReader(&buf)
	var scratch []byte
	for i, p := range want {
		got, err := ReadFrame(r, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, p) {
			t.Errorf("frame %d: payload mutated", i)
		}
		scratch = got
	}
	if _, err := ReadFrame(r, scratch); err != io.EOF {
		t.Errorf("stream end: got %v, want io.EOF", err)
	}
}

// TestReadFrameEOFSemantics pins the clean-boundary contract: io.EOF only
// between frames, io.ErrUnexpectedEOF anywhere inside one.
func TestReadFrameEOFSemantics(t *testing.T) {
	whole := framed(AppendFrame(nil, func() *Frame { f := frameA(); return &f }()))
	for cut := 1; cut < len(whole); cut++ {
		r := bufio.NewReader(bytes.NewReader(whole[:cut]))
		_, err := ReadFrame(r, nil)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d/%d: got %v, want io.ErrUnexpectedEOF", cut, len(whole), err)
		}
	}
	// A multi-byte length prefix cut after its first byte is mid-frame too.
	r := bufio.NewReader(bytes.NewReader(framed(make([]byte, 300))[:1]))
	if _, err := ReadFrame(r, nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("mid-prefix cut: got %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestReadFrameBoundsLength(t *testing.T) {
	r := bufio.NewReader(bytes.NewReader(framed(make([]byte, MaxFrameBytes+1))))
	if _, err := ReadFrame(r, nil); !errors.Is(err, ErrFrame) {
		t.Errorf("oversized frame: got %v, want ErrFrame", err)
	}
	r = bufio.NewReader(bytes.NewReader(framed(make([]byte, MaxFrameBytes))))
	if got, err := ReadFrame(r, nil); err != nil || len(got) != MaxFrameBytes {
		t.Errorf("at-limit frame: %d bytes, %v; want %d bytes", len(got), err, MaxFrameBytes)
	}
}

func TestDefaultAgentConfigValid(t *testing.T) {
	if errs := DefaultAgentConfig().Validate(); len(errs) > 0 {
		t.Fatalf("DefaultAgentConfig invalid: %v", errs)
	}
	if errs := (AgentConfig{}).Validate(); len(errs) > 0 {
		t.Fatalf("zero AgentConfig invalid after defaults: %v", errs)
	}
}

func TestAgentConfigValidateErrors(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*AgentConfig)
	}{
		{"negative frame samples", func(c *AgentConfig) { c.FrameSamples = -1 }},
		{"frame samples over cap", func(c *AgentConfig) { c.FrameSamples = MaxFrameSamples + 1 }},
		{"negative queue", func(c *AgentConfig) { c.QueueFrames = -1 }},
		{"negative backoff base", func(c *AgentConfig) { c.BackoffBase = -time.Second }},
		{"backoff max below base", func(c *AgentConfig) {
			c.BackoffBase = time.Second
			c.BackoffMax = time.Millisecond
		}},
		{"negative dial timeout", func(c *AgentConfig) { c.DialTimeout = -1 }},
		{"negative write timeout", func(c *AgentConfig) { c.WriteTimeout = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultAgentConfig()
			tt.mutate(&cfg)
			errs := cfg.Validate()
			if len(errs) == 0 {
				t.Fatalf("%s not rejected", tt.name)
			}
			for _, err := range errs {
				if !errors.Is(err, core.ErrBadConfig) {
					t.Errorf("error %v does not wrap ErrBadConfig", err)
				}
			}
		})
	}
	// MaxRetries is clamp-only: any value validates.
	neg := DefaultAgentConfig()
	neg.MaxRetries = -5
	if errs := neg.Validate(); len(errs) > 0 {
		t.Errorf("negative MaxRetries should clamp, got %v", errs)
	}
}

// TestDecodeBoundsBeforeAllocating: a count or dim field that promises
// more than the payload's bytes hold is rejected on the first walk, before
// anything is sized by it — neither 4096 samples nor 4096 floats' worth of
// memory is allocated for a payload a few bytes long.
func TestDecodeBoundsBeforeAllocating(t *testing.T) {
	head := []byte{Version, 1, 's', 0} // site "s", seq 0
	count := binary.AppendUvarint(append([]byte{}, head...), MaxFrameSamples)
	dim := append(append([]byte{}, head...), 1)                          // one sample
	dim = append(dim, make([]byte, 8)...)                                // its time
	dim = append(binary.AppendUvarint(dim, MaxDim), make([]byte, 16)...) // 4096 floats promised, 2 there
	var dec Decoder
	for name, payload := range map[string][]byte{"count": count, "dim": dim} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		const runs = 100
		var into Frame
		for i := 0; i < runs; i++ {
			if _, err := dec.Decode(payload); !errors.Is(err, ErrFrame) {
				t.Fatalf("%s: got %v, want ErrFrame", name, err)
			}
			if err := dec.DecodeInto(&into, payload); !errors.Is(err, ErrFrame) {
				t.Fatalf("%s: DecodeInto got %v, want ErrFrame", name, err)
			}
		}
		runtime.ReadMemStats(&m1)
		// Only the error values: far below one sample slice or one slab.
		if per := (m1.TotalAlloc - m0.TotalAlloc) / (2 * runs); per > 1024 {
			t.Errorf("%s: %d bytes allocated per rejected payload", name, per)
		}
	}
}

// TestDecoderOwnership: frames Decode returns own their vectors — ten
// frames held at once all still read as they were sent, and a frame
// decoded into afterwards takes none of them.
func TestDecoderOwnership(t *testing.T) {
	var dec Decoder
	var sent, got []Frame
	var into Frame
	for i := 0; i < 10; i++ {
		f := hpcFrame()
		f.Seq = uint64(i)
		for k := range f.Samples {
			for _, vec := range f.Samples[k].Vecs {
				for j := range vec {
					vec[j] += float64(1000 * i)
				}
			}
		}
		d, err := dec.Decode(AppendFrame(nil, &f))
		if err != nil {
			t.Fatal(err)
		}
		sent, got = append(sent, f), append(got, d)
		if err := dec.DecodeInto(&into, AppendFrame(nil, &f)); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(sent, got) {
		t.Fatal("frames held across later decodes no longer read as sent")
	}
}

// TestDecodeIntoReuses: decoding into a frame that has held a frame at
// least as large reuses its sample slice and slab, and leaves nothing of
// what the frame held before.
func TestDecodeIntoReuses(t *testing.T) {
	var dec Decoder
	big := hpcFrame()
	big.Samples = append(big.Samples, big.Samples[0])
	var f Frame
	if err := dec.DecodeInto(&f, AppendFrame(nil, &big)); err != nil {
		t.Fatal(err)
	}
	samples, slab := &f.Samples[0], &f.slab[0]
	small := hpcFrame()
	small.Site = "site-000001"
	small.Samples[1].Vecs[0] = nil
	if err := dec.DecodeInto(&f, AppendFrame(nil, &small)); err != nil {
		t.Fatal(err)
	}
	if &f.Samples[0] != samples || &f.slab[0] != slab {
		t.Error("DecodeInto reallocated a frame that had room")
	}
	if !sameFrame(f, small) {
		t.Errorf("DecodeInto a used frame: %+v, want %+v", f, small)
	}
}

// TestCodecAllocs pins what the byte path allocates per frame at steady
// state: a decode into a reused frame nothing, Decode a sample slice and a
// slab, the one-shot DecodeFrame the site name besides; Send nothing once
// written frames have given their buffers back, and before that one chunk
// of buffers per chunk.Carves frames — counted by ReadMemStats over
// sends enough to turn dozens of chunks, since AllocsPerRun rounds the
// fraction down to zero.
func TestCodecAllocs(t *testing.T) {
	f := hpcFrame()
	payload := AppendFrame(nil, &f)
	into := Decoder{Site: func([]byte) string { return f.Site }}
	var reused Frame
	if n := testing.AllocsPerRun(100, func() { _ = into.DecodeInto(&reused, payload) }); n != 0 {
		t.Errorf("Decoder.DecodeInto a reused frame: %v allocs per frame, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { sinkFrame, _ = into.Decode(payload) }); n > 2 {
		t.Errorf("Decoder.Decode: %v allocs per frame, want <= 2", n)
	}
	if n := testing.AllocsPerRun(100, func() { sinkFrame, _ = DecodeFrame(payload) }); n > 3 {
		t.Errorf("DecodeFrame: %v allocs per frame, want <= 3", n)
	}
	const sends = 1024
	s, script := newScriptedSender(t, AgentConfig{QueueFrames: 2 * sends})
	release := holdDrain(t, s, script) // the drain goroutine allocates nothing while parked
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range sends {
		s.Send(&f)
	}
	runtime.ReadMemStats(&after)
	if n := float64(after.Mallocs-before.Mallocs) / sends; n > 2.0/chunk.Carves {
		t.Errorf("Sender.Send before any buffer came back: %.4f allocs per frame, want <= %g", n, 2.0/chunk.Carves)
	}
	release()
	s.Flush()
	// Every buffer is back: the next sends reuse them.
	if n := testing.AllocsPerRun(100, func() { s.Send(&f) }); n != 0 {
		t.Errorf("Sender.Send with buffers returned: %v allocs per frame, want 0", n)
	}
	s.Close()
}

// hpcFrame is the frame an agent ships by default at the HPC level: five
// scrapes, nineteen counters a tier, 1585 bytes encoded.
func hpcFrame() Frame {
	f := Frame{Site: "site-000000", Seq: 7}
	for k := 0; k < 5; k++ {
		s := Sample{Time: float64(k + 1)}
		for tier := range s.Vecs {
			s.Vecs[tier] = make([]float64, 19)
			for j := range s.Vecs[tier] {
				s.Vecs[tier][j] = float64(k*19+j) + 0.5
			}
		}
		f.Samples = append(f.Samples, s)
	}
	return f
}

var sinkFrame Frame

// BenchmarkDecodeFrame is the per-frame cost of the receive side's codec
// as a connection lane runs it: one Decoder whose site resolver answers
// from a table, decoding into a frame that was handed back.
func BenchmarkDecodeFrame(b *testing.B) {
	f := hpcFrame()
	payload := AppendFrame(nil, &f)
	sites := map[string]string{f.Site: f.Site}
	dec := Decoder{Site: func(name []byte) string { return sites[string(name)] }}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dec.DecodeInto(&sinkFrame, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendFrame is the per-frame cost of the send side's codec as
// Sender.Send runs it: the default HPC frame encoded into a buffer that
// already has room.
func BenchmarkAppendFrame(b *testing.B) {
	f := hpcFrame()
	buf := AppendFrame(nil, &f)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendFrame(buf[:0], &f)
	}
}
