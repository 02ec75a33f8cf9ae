package fuse_test

import (
	"math"
	"testing"

	"hpcap/internal/fuse"
)

// BenchmarkFuseSample measures one fused HPC sample on the steady-state
// path (all readings accepted). The serving pipelines pay this once per
// tier per second per site; allocs/op must stay 0.
func BenchmarkFuseSample(b *testing.B) {
	f, err := fuse.New(fuse.Config{}, 19)
	if err != nil {
		b.Fatal(err)
	}
	var stream [16][]float64
	for i := range stream {
		stream[i] = hpcVec(i)
	}
	for i := 0; i < 32; i++ {
		f.Fuse(stream[i%len(stream)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Fuse(stream[i%len(stream)])
	}
}

// BenchmarkFuseBatch measures a full combined-layout window (30 fused
// samples of 83 counters) with a NaN fault in every fifth sample, so
// the imputation path is costed too.
func BenchmarkFuseBatch(b *testing.B) {
	dim := 64 + 19
	f, err := fuse.New(fuse.Config{}, dim)
	if err != nil {
		b.Fatal(err)
	}
	var stream [30][]float64
	for i := range stream {
		stream[i] = append(osVec(i), hpcVec(i)...)
		if i%5 == 0 {
			stream[i][64] = math.NaN()
		}
	}
	for i := 0; i < 32; i++ {
		f.Fuse(stream[i%len(stream)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range stream {
			f.Fuse(stream[j])
		}
	}
}

// BenchmarkBankSample measures one fused HPC sample the way a serving
// shard pays it: round robin over 750 streams of one Bank (a 3000-site
// fleet's two tiers over eight shards), so each call finds its
// stream's filters cold in cache.
func BenchmarkBankSample(b *testing.B) {
	const streams = 750
	bank, err := fuse.NewBank(fuse.Config{}, 19)
	if err != nil {
		b.Fatal(err)
	}
	for range streams {
		bank.Add()
	}
	var stream [16][]float64
	for i := range stream {
		stream[i] = hpcVec(i)
	}
	for i := 0; i < 32*streams; i++ {
		bank.Fuse(i%streams, stream[i/streams%len(stream)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.Fuse(i%streams, stream[i/streams%len(stream)])
	}
}
