package fuse_test

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"hpcap/internal/core"
	"hpcap/internal/fuse"
)

// FuzzFuseConfig pins the config contract under arbitrary settings:
// every validation error wraps core.ErrBadConfig, a config that
// validates cleanly constructs a Bank and a Fuser, and validation is
// stable (a valid config stays valid when re-validated).
func FuzzFuseConfig(f *testing.F) {
	f.Add(0.25, 0.05, 8.0, 4, 5, 0.7)
	f.Add(0.0, 0.0, 0.0, 0, 0, 0.0)
	f.Add(-1.0, math.Inf(1), math.NaN(), 1, -3, 1.5)
	f.Add(1e308, 1e-308, 1e6, 1<<30, 1<<30, 1.0)
	f.Fuzz(func(t *testing.T, pn, mn, gs float64, sr, wu int, cf float64) {
		cfg := fuse.Config{
			ProcessNoise:     pn,
			MeasurementNoise: mn,
			GateSigmas:       gs,
			StuckRun:         sr,
			Warmup:           wu,
			ConfidenceFloor:  cf,
		}
		errs := cfg.Validate()
		for _, err := range errs {
			if !errors.Is(err, core.ErrBadConfig) {
				t.Fatalf("error %v does not wrap ErrBadConfig", err)
			}
		}
		if _, err := fuse.New(cfg, 19); (err == nil) != (len(errs) == 0) {
			t.Fatalf("Validate found %d errors but New said %v", len(errs), err)
		}
		b, err := fuse.NewBank(cfg, 19)
		if (err == nil) != (len(errs) == 0) {
			t.Fatalf("Validate found %d errors but NewBank said %v", len(errs), err)
		}
		if err != nil {
			if !errors.Is(err, core.ErrBadConfig) {
				t.Fatalf("NewBank error %v does not wrap ErrBadConfig", err)
			}
			return
		}
		if errs := b.Config().Validate(); len(errs) > 0 {
			t.Fatalf("resolved config invalid: %v", errs)
		}
	})
}

// FuzzFuseIngest feeds arbitrary byte streams — reinterpreted as raw
// float64 bits, so NaN, ±Inf, subnormals, stuck repeats, and
// zero-variance runs all occur — and pins the safety contract: no
// panic, every emitted value finite, confidence in [0, 1], and the
// whole pass deterministic (a second fuser fed the same stream emits
// identical bits).
func FuzzFuseIngest(f *testing.F) {
	nan := math.Float64bits(math.NaN())
	inf := math.Float64bits(math.Inf(1))
	seed := make([]byte, 0, 8*8)
	for _, b := range []uint64{nan, inf, 0, 0, math.Float64bits(1e308), math.Float64bits(-1e308), nan, 42} {
		seed = binary.LittleEndian.AppendUint64(seed, b)
	}
	f.Add(uint8(19), seed)
	f.Add(uint8(64), seed)
	f.Add(uint8(83), []byte{})
	f.Add(uint8(1), []byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, dimByte uint8, data []byte) {
		dim := int(dimByte%96) + 1
		f1, err := fuse.New(fuse.Config{}, dim)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		f2, _ := fuse.New(fuse.Config{}, dim)

		vals := make([]float64, 0, len(data)/8)
		for i := 0; i+8 <= len(data); i += 8 {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data[i:])))
		}
		vec := make([]float64, dim)
		for off := 0; off == 0 || off+dim <= len(vals); off += dim {
			for i := range vec {
				if off+i < len(vals) {
					vec[i] = vals[off+i]
				} else {
					vec[i] = 0
				}
			}
			r1 := f1.Fuse(vec)
			r2 := f2.Fuse(vec)
			if !(r1.Confidence >= 0 && r1.Confidence <= 1) {
				t.Fatalf("confidence %v out of [0,1]", r1.Confidence)
			}
			if r1.Imputed < 0 || r1.Imputed > dim || r1.Gated < 0 || r1.Gated > r1.Imputed {
				t.Fatalf("counters out of range: imputed=%d gated=%d dim=%d", r1.Imputed, r1.Gated, dim)
			}
			for i, v := range r1.Values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("non-finite emission %v at counter %d", v, i)
				}
				if math.Float64bits(v) != math.Float64bits(r2.Values[i]) {
					t.Fatalf("nondeterministic emission at counter %d", i)
				}
			}
		}
	})
}
