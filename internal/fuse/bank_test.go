package fuse

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

// TestBankMatchesReference holds a Bank of many interleaved streams to
// one frozen reference fuser per stream: 150 streams (three pages) at
// each layout dimension, under the default and an aggressive config,
// take their seeded fault-laden steps in a shuffled order while random
// streams are reset. After every step the emitted bits and the stream's
// whole state must match its reference, and at the end every stream's
// state must, so no step or reset touched a neighbour.
func TestBankMatchesReference(t *testing.T) {
	const streams, steps = 150, 80
	for _, dim := range []int{19, 83, 7} {
		for _, cfg := range []Config{{}, {Warmup: -1, StuckRun: 2, GateSigmas: 2}} {
			b, err := NewBank(cfg, dim)
			if err != nil {
				t.Fatal(err)
			}
			refs := make([]*refFuser, streams)
			progs := make([][][]float64, streams)
			rng := rand.New(rand.NewSource(int64(dim)))
			for s := range refs {
				if got := b.Add(); got != s {
					t.Fatalf("Add returned %d, want %d", got, s)
				}
				refs[s] = newRefFuser(cfg, dim)
				progs[s] = faultyStream(rng, dim, steps)
			}
			next := make([]int, streams)
			for round := 0; round < steps; round++ {
				for _, s := range rng.Perm(streams) {
					if rng.Intn(40) == 0 {
						r := rng.Intn(streams)
						b.Reset(r)
						refs[r].Reset()
					}
					if next[s] >= len(progs[s]) {
						continue
					}
					vec := progs[s][next[s]]
					next[s]++
					if vec == nil {
						b.Reset(s)
						refs[s].Reset()
						continue
					}
					got := b.Fuse(s, vec)
					checkSameStep(t, round, b, s, refs[s], got, refs[s].Fuse(vec))
				}
			}
			for s, ref := range refs {
				checkState(t, -1, b, s, ref)
			}
		}
	}
}

// FuzzBankMatchesReference feeds arbitrary byte streams, reinterpreted
// as raw float64 bits, to the streams of one Bank that spans two pages
// and to one frozen reference per stream, and requires every step to
// agree bit for bit. Each step goes to a stream drawn from its first
// reading's bits; mode picks the config (bit 0, as in
// FuzzFuseMatchesReference), short vectors (bit 3), resets of a
// neighbouring stream (bit 4) and how far the bank reaches into its
// second page (bits 5–7).
func FuzzBankMatchesReference(f *testing.F) {
	nan := math.Float64bits(math.NaN())
	inf := math.Float64bits(math.Inf(1))
	seed := make([]byte, 0, 8*8)
	for _, b := range []uint64{nan, inf, 0, 64, math.Float64bits(1e308), 65, nan, 42} {
		seed = binary.LittleEndian.AppendUint64(seed, b)
	}
	f.Add(uint8(19), uint8(0), seed)
	f.Add(uint8(64), uint8(17), seed)
	f.Add(uint8(83), uint8(255), []byte{})
	f.Add(uint8(1), uint8(25), []byte{64, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, dimByte, mode uint8, data []byte) {
		dim := int(dimByte%96) + 1
		var cfg Config
		if mode&1 != 0 {
			cfg = Config{Warmup: -1, StuckRun: 2, GateSigmas: float64(1 + mode>>1&3)}
		}
		b, err := NewBank(cfg, dim)
		if err != nil {
			t.Fatal(err)
		}
		n := pageStreams + 1 + int(mode>>5)
		refs := make([]*refFuser, n)
		for s := range refs {
			b.Add()
			refs[s] = newRefFuser(cfg, dim)
		}

		vals := make([]float64, 0, len(data)/8)
		for i := 0; i+8 <= len(data); i += 8 {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data[i:])))
		}
		vec := make([]float64, dim)
		step := 0
		for off := 0; off == 0 || off+dim <= len(vals); off += dim {
			for i := range vec {
				if off+i < len(vals) {
					vec[i] = vals[off+i]
				} else {
					vec[i] = 0
				}
			}
			s := int(math.Float64bits(vec[0]) % uint64(n))
			in := vec
			if mode&8 != 0 && step%3 == 2 {
				in = vec[:dim/2]
			}
			if mode&16 != 0 && step%5 == 4 {
				b.Reset((s + 1) % n)
				refs[(s+1)%n].Reset()
			}
			checkSameStep(t, step, b, s, refs[s], b.Fuse(s, in), refs[s].Fuse(in))
			step++
		}
		for s, ref := range refs {
			checkState(t, -1, b, s, ref)
		}
	})
}

// TestBankStateBytes pins the packed filter at 40 bytes and what a
// 19-counter stream costs a Bank once its pages are full: at most 800
// bytes, scratch and page lists included, in at most three allocations
// a page (its state, its coefficients and the growth of the page lists).
// The costs are averaged over several banks, so a stray allocation
// elsewhere in the process cannot fail the test.
func TestBankStateBytes(t *testing.T) {
	if got := unsafe.Sizeof(counterState{}); got != 40 {
		t.Errorf("counterState is %d bytes, want 40", got)
	}
	const pages, banks = 8, 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range banks {
		b, err := NewBank(Config{}, hpcDim)
		if err != nil {
			t.Fatal(err)
		}
		for range pages * pageStreams {
			b.Add()
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / (banks * pages * pageStreams)
	n := (after.Mallocs - before.Mallocs) / banks
	t.Logf("%d B per %d-counter stream; %d allocations for %d pages", per, hpcDim, n, pages)
	if per > 800 {
		t.Errorf("a %d-counter stream costs %d bytes, want at most 800", hpcDim, per)
	}
	if n > 3+3*pages {
		t.Errorf("%d pages cost %d allocations, want at most %d", pages, n, 3+3*pages)
	}
}

// TestBankScratchOwnsItsLines: the scratch every Fuse writes starts on a
// 64-byte line in each of several banks built one after another, so the
// banks of parallel shards never share a written cache line.
func TestBankScratchOwnsItsLines(t *testing.T) {
	for _, dim := range []int{hpcDim, osDim, osDim + hpcDim, 7} {
		for k := 0; k < 4; k++ {
			b, err := NewBank(Config{}, dim)
			if err != nil {
				t.Fatal(err)
			}
			if o, c := uintptr(unsafe.Pointer(unsafe.SliceData(b.out))), uintptr(unsafe.Pointer(unsafe.SliceData(b.cls))); o%64 != 0 || c%64 != 0 {
				t.Errorf("dim %d bank %d: scratch at %#x and %#x, want both 64-byte aligned", dim, k, o, c)
			}
		}
	}
}

// TestBankAllocs: Add allocates nothing inside a page, and Fuse nothing
// on the clean or the imputing path.
func TestBankAllocs(t *testing.T) {
	b, err := NewBank(Config{}, hpcDim)
	if err != nil {
		t.Fatal(err)
	}
	b.Add()
	// One warm-up call and pageStreams-2 runs fill the first page.
	if n := testing.AllocsPerRun(pageStreams-2, func() { b.Add() }); n != 0 {
		t.Errorf("Add inside a page allocates %v times, want 0", n)
	}
	rng := rand.New(rand.NewSource(1))
	prog := faultyStream(rng, hpcDim, 64)
	step := 0
	if n := testing.AllocsPerRun(200, func() {
		if vec := prog[step%len(prog)]; vec != nil {
			b.Fuse(step%pageStreams, vec)
		}
		step++
	}); n != 0 {
		t.Errorf("Fuse allocates %v times per call, want 0", n)
	}
}
