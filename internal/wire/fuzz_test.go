package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"hpcap/internal/server"
)

// sameFrame is reflect.DeepEqual with floats compared by their bits, so
// NaNs a fuzzer invents compare equal to themselves.
func sameFrame(a, b Frame) bool {
	if a.Site != b.Site || a.Seq != b.Seq || len(a.Samples) != len(b.Samples) || (a.Samples == nil) != (b.Samples == nil) {
		return false
	}
	for i := range a.Samples {
		x, y := &a.Samples[i], &b.Samples[i]
		if math.Float64bits(x.Time) != math.Float64bits(y.Time) {
			return false
		}
		for tier := range x.Vecs {
			if len(x.Vecs[tier]) != len(y.Vecs[tier]) || (x.Vecs[tier] == nil) != (y.Vecs[tier] == nil) {
				return false
			}
			for j, v := range x.Vecs[tier] {
				if math.Float64bits(v) != math.Float64bits(y.Vecs[tier][j]) {
					return false
				}
			}
		}
	}
	return true
}

// FuzzFrameDecode pins the receiver's load-bearing guarantees against
// arbitrary payloads. Decoding never panics, and a successful decode is
// stable — re-encoding and re-decoding reproduces the same frame exactly,
// sequence number above all, so no field can be silently altered or
// dropped in flight. (The input itself may use non-minimal varints, so
// byte-for-byte fixed-point against the raw payload is not required; the
// canonical re-encoding is.) A reused Decoder is the one-shot DecodeFrame:
// it accepts and rejects the same payloads, returns the same frame, and a
// frame Decode returned stays bit-unchanged while it decodes the next
// eight — Decode's frames are self-owned. And DecodeInto a dirty recycled
// frame, left by a larger earlier frame (more samples, longer vectors, a
// vector wherever the input has none), yields the one-shot frame too, or
// on a rejected payload leaves the dirty frame as it was.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{Version})
	f.Add(AppendFrame(nil, &Frame{Site: "seed", Seq: 1, Samples: []Sample{
		{Time: 30, Vecs: [server.NumTiers][]float64{{1, 2}, {3}}},
	}}))
	f.Add(AppendFrame(nil, &Frame{Site: "seed", Seq: 2, Samples: []Sample{
		{Time: 31, Vecs: [server.NumTiers][]float64{nil, {4, 5, 6}}},
		{Time: 32},
	}}))
	f.Add(AppendFrame(nil, &Frame{Site: "", Seq: math.MaxUint64}))
	f.Add([]byte{Version, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, payload []byte) {
		var dec Decoder
		held, derr := dec.Decode(payload)
		frame, err := DecodeFrame(payload)
		if (err == nil) != (derr == nil) {
			t.Fatalf("reused decoder: %v, one-shot: %v", derr, err)
		}

		// The dirty frame: a larger frame than the input decoded into it.
		dirty := Frame{Site: "dirty"}
		if err := dec.DecodeInto(&dirty, AppendFrame(nil, larger(&frame))); err != nil {
			t.Fatalf("larger frame does not decode: %v", err)
		}
		before := cloneFrame(dirty)
		ierr := dec.DecodeInto(&dirty, payload)
		if (ierr == nil) != (err == nil) {
			t.Fatalf("DecodeInto: %v, one-shot: %v", ierr, err)
		}
		if err != nil {
			if !errors.Is(err, ErrFrame) || !errors.Is(derr, ErrFrame) || !errors.Is(ierr, ErrFrame) {
				t.Fatalf("decode errors %v / %v / %v do not wrap ErrFrame", err, derr, ierr)
			}
			if !sameFrame(dirty, before) {
				t.Fatalf("rejected payload changed the frame: %+v, was %+v", dirty, before)
			}
			return
		}
		if !sameFrame(dirty, frame) {
			t.Fatalf("DecodeInto a recycled frame: %+v, one-shot %+v", dirty, frame)
		}
		if n := frameLen(&frame); n != len(AppendFrame(nil, &frame)) {
			t.Fatalf("frameLen %d, encoding is %d bytes", n, len(AppendFrame(nil, &frame)))
		}
		re := AppendFrame(nil, &frame)
		frame2, err := DecodeFrame(re)
		if err != nil {
			t.Fatalf("canonical re-encoding does not decode: %v", err)
		}
		if !sameFrame(frame, frame2) {
			t.Fatalf("round trip mutated frame: %+v vs %+v", frame, frame2)
		}
		if re2 := AppendFrame(nil, &frame2); !bytes.Equal(re, re2) {
			t.Fatalf("round trip not stable:\n re  %x\n re2 %x", re, re2)
		}

		if !sameFrame(held, frame) {
			t.Fatalf("reused decoder returned %+v, one-shot %+v", held, frame)
		}
		// Eight more frames through the same Decoder, every float different
		// from the held frame's, must leave the held frame as it was.
		next := frame2
		for i := 1; i <= 8; i++ {
			next.Seq = frame.Seq + uint64(i)
			for k := range next.Samples {
				for _, vec := range next.Samples[k].Vecs {
					for j := range vec {
						vec[j] = float64(i*1000 + j)
					}
				}
			}
			got, err := dec.Decode(AppendFrame(nil, &next))
			if err != nil || !sameFrame(got, next) {
				t.Fatalf("reused decoder, frame +%d: %+v, %v; want %+v", i, got, err, next)
			}
		}
		if !sameFrame(held, frame) {
			t.Fatalf("held frame changed under later decodes: %+v, was %+v", held, frame)
		}
	})
}

// larger returns a frame with one sample more than f and every vector one
// value longer — so a tier f leaves empty has a vector here — capped at
// the protocol bounds; every float differs from f's.
func larger(f *Frame) *Frame {
	g := &Frame{Site: f.Site + "-larger", Seq: f.Seq + 1}
	n := min(len(f.Samples)+1, MaxFrameSamples)
	for i := 0; i < n; i++ {
		s := Sample{Time: -float64(i + 1)}
		for tier := range s.Vecs {
			dim := 1
			if i < len(f.Samples) {
				dim = min(len(f.Samples[i].Vecs[tier])+1, MaxDim)
			}
			s.Vecs[tier] = make([]float64, dim)
			for j := range s.Vecs[tier] {
				s.Vecs[tier][j] = -float64(1000*i + j + 1)
			}
		}
		g.Samples = append(g.Samples, s)
	}
	return g
}

// cloneFrame deep-copies a frame's fields, so a later decode into f cannot
// reach the copy.
func cloneFrame(f Frame) Frame {
	c := Frame{Site: f.Site, Seq: f.Seq}
	if f.Samples != nil {
		c.Samples = make([]Sample, len(f.Samples))
	}
	for i, s := range f.Samples {
		c.Samples[i].Time = s.Time
		for tier, vec := range s.Vecs {
			if vec != nil {
				c.Samples[i].Vecs[tier] = append([]float64{}, vec...)
			}
		}
	}
	return c
}
