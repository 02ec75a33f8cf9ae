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
// canonical re-encoding is.) And a connection's reused Decoder is the
// one-shot DecodeFrame: it accepts and rejects the same payloads, returns
// the same frame, and a frame it returned stays bit-unchanged while it
// decodes the next eight — the engine reads those vectors asynchronously.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{Version})
	f.Add(AppendFrame(nil, &Frame{Site: "seed", Seq: 1, Samples: []Sample{
		{Time: 30, Vecs: [server.NumTiers][]float64{{1, 2}, {3}}},
	}}))
	f.Add(AppendFrame(nil, &Frame{Site: "", Seq: math.MaxUint64}))
	f.Add([]byte{Version, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, payload []byte) {
		dec := NewDecoder()
		held, derr := dec.Decode(payload)
		frame, err := DecodeFrame(payload)
		if (err == nil) != (derr == nil) {
			t.Fatalf("reused decoder: %v, one-shot: %v", derr, err)
		}
		if err != nil {
			if !errors.Is(err, ErrFrame) || !errors.Is(derr, ErrFrame) {
				t.Fatalf("decode errors %v / %v do not wrap ErrFrame", err, derr)
			}
			return
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
