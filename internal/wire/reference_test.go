package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"hpcap/internal/server"
)

// The per-float codec as it stood before vectors moved in bulk, copied
// verbatim from AppendFrame and DecodeInto and never regenerated: the
// reference FuzzCodecMatchesReference holds the codec to, byte for byte
// on encode and bit for bit on decode.

// refAppendFrame is AppendFrame with its per-float loop.
func refAppendFrame(dst []byte, f *Frame) []byte {
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
			for _, v := range s.Vecs[tier] {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
			}
		}
	}
	return dst
}

// refDecodeInto is Decoder.DecodeInto with its per-float loop.
func refDecodeInto(d *Decoder, f *Frame, payload []byte) error {
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
			for j := range vec {
				vec[j] = math.Float64frombits(binary.LittleEndian.Uint64(b))
				b = b[8:]
			}
			s.Vecs[tier] = vec
		}
	}
	return nil
}

// FuzzCodecMatchesReference holds the codec to the frozen per-float
// reference on any vectors. raw supplies the float64 bit patterns (NaN
// payloads, −0, ±Inf and denormals included), shape one vector length per
// byte, NumTiers to a sample, and off a misalignment for the payload:
// AppendFrame must write refAppendFrame's bytes after any prefix, and
// DecodeInto must fill a fresh frame and a recycled one with the bits
// refDecodeInto fills them with, and with the bits that were encoded.
func FuzzCodecMatchesReference(f *testing.F) {
	special := []uint64{
		0x7ff8000000000001, // quiet NaN with a payload
		0x7ff0000000000001, // signalling NaN
		0xfff8dead0000beef, // negative NaN with a payload
		0x8000000000000000, // −0
		0x7ff0000000000000, // +Inf
		0xfff0000000000000, // −Inf
		0x0000000000000001, // smallest denormal
		0x800fffffffffffff, // largest negative denormal
		0x3ff0000000000000, // 1
	}
	var raw []byte
	for _, b := range special {
		raw = binary.LittleEndian.AppendUint64(raw, b)
	}
	f.Add(raw, []byte{19, 19, 0, 19, 3, 9}, uint8(0))
	f.Add(raw, []byte{0, 0}, uint8(3))
	f.Add(raw[:8], []byte{1, 200, 7, 0, 0, 5}, uint8(5))
	f.Add([]byte{}, []byte{4}, uint8(1))
	f.Add([]byte{}, []byte{}, uint8(7))

	f.Fuzz(func(t *testing.T, raw, shape []byte, off uint8) {
		const maxSamples = 64
		shape = shape[:min(len(shape), maxSamples*int(server.NumTiers))]
		k := 0
		next := func() float64 {
			k++
			if len(raw) < 8 {
				return float64(k)
			}
			i := 8 * (k % (len(raw) / 8))
			return math.Float64frombits(binary.LittleEndian.Uint64(raw[i:]))
		}
		fr := Frame{Site: "ref", Seq: uint64(len(raw))}
		for i := 0; i < len(shape); i += int(server.NumTiers) {
			s := Sample{Time: next()}
			for tier := range s.Vecs {
				if i+tier >= len(shape) || shape[i+tier] == 0 {
					continue
				}
				s.Vecs[tier] = make([]float64, shape[i+tier])
				for j := range s.Vecs[tier] {
					s.Vecs[tier][j] = next()
				}
			}
			fr.Samples = append(fr.Samples, s)
		}

		prefix := bytes.Repeat([]byte{0xa5}, int(off))
		want := refAppendFrame(append([]byte{}, prefix...), &fr)
		got := AppendFrame(append(make([]byte, 0, len(prefix)+3), prefix...), &fr)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendFrame after a %d-byte prefix:\n got %x\nwant %x", off, got, want)
		}
		if n := frameLen(&fr); n != len(want)-len(prefix) {
			t.Fatalf("frameLen %d, encoding is %d bytes", n, len(want)-len(prefix))
		}

		// The payload at offset off%8 of its buffer: vectors decode from
		// unaligned bytes.
		buf := make([]byte, int(off%8)+len(want)-len(prefix))
		payload := buf[off%8:]
		copy(payload, want[len(prefix):])
		var dec Decoder
		var fresh, ref Frame
		if err := dec.DecodeInto(&fresh, payload); err != nil {
			t.Fatalf("DecodeInto: %v", err)
		}
		if err := refDecodeInto(&dec, &ref, payload); err != nil {
			t.Fatalf("refDecodeInto: %v", err)
		}
		if !sameFrame(fresh, ref) || !sameFrame(fresh, fr) {
			t.Fatalf("DecodeInto a fresh frame: %+v\nreference %+v\nencoded %+v", fresh, ref, fr)
		}
		dirty, refDirty := Frame{}, Frame{}
		bigger := AppendFrame(nil, larger(&fr))
		if err := dec.DecodeInto(&dirty, bigger); err != nil {
			t.Fatalf("larger frame does not decode: %v", err)
		}
		if err := refDecodeInto(&dec, &refDirty, bigger); err != nil {
			t.Fatalf("larger frame does not decode by the reference: %v", err)
		}
		if err := dec.DecodeInto(&dirty, payload); err != nil {
			t.Fatalf("DecodeInto a recycled frame: %v", err)
		}
		if err := refDecodeInto(&dec, &refDirty, payload); err != nil {
			t.Fatalf("refDecodeInto a recycled frame: %v", err)
		}
		if !sameFrame(dirty, refDirty) || !sameFrame(dirty, fr) {
			t.Fatalf("DecodeInto a recycled frame: %+v\nreference %+v\nencoded %+v", dirty, refDirty, fr)
		}
	})
}
