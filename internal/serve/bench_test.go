package serve_test

import (
	"fmt"
	"testing"

	"hpcap/internal/serve"
	"hpcap/internal/server"
	"hpcap/internal/wire"
)

// BenchmarkPipelineIngest measures the steady-state per-sample cost of the
// online serving path: one recorded 1-second vector through validation,
// windowing, and (every Window samples per tier) a coordinated decision.
func BenchmarkPipelineIngest(b *testing.B) {
	_, mon, tr := fixture(b)
	p, err := serve.NewPipeline(mon, serve.Config{Window: 30})
	if err != nil {
		b.Fatal(err)
	}
	vecs := secondVectors(tr)
	n := len(tr.SecTimes)
	if n == 0 {
		b.Fatal("trace recorded no seconds")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Strictly increasing synthetic clock, recorded vectors cycled.
		sec := i / int(server.NumTiers)
		tier := server.TierID(i % int(server.NumTiers))
		p.Ingest(serve.Sample{
			Site:   "bench",
			Tier:   tier,
			Time:   float64(sec + 1),
			Values: vecs[tier][sec%n],
		})
	}
}

// BenchmarkFleetIngest measures steady-state ingest across a fleet,
// round-robin over the sites second by second — the access pattern a
// lockstep fleet produces. Three legs per fleet size: the unsharded
// pipeline keyed by site name, the sharded pipeline keyed by site name
// (hash + per-site map lookup per sample), and the sharded pipeline's
// fused fast path (Register once, Batcher.AddSite per site scrape).
func BenchmarkFleetIngest(b *testing.B) {
	_, mon, tr := fixture(b)
	vecs := secondVectors(tr)
	n := len(tr.SecTimes)
	for _, nSites := range []int{1000, 10000, 100000} {
		names := make([]string, nSites)
		for i := range names {
			names[i] = fmt.Sprintf("site-%06d", i)
		}
		runLeg := func(b *testing.B, ingest func(i int, tier server.TierID, ts float64, v []float64), sync func()) {
			// Warm: create every site so steady state is measured.
			for i := range names {
				for tier := server.TierID(0); tier < server.NumTiers; tier++ {
					ingest(i, tier, 1, vecs[tier][0])
				}
			}
			sync()
			b.ReportAllocs()
			b.ResetTimer()
			done := 0
			for sec := 2; done < b.N; sec++ {
				ts := float64(sec)
				vi := sec % n
				for i := 0; i < nSites && done < b.N; i++ {
					for tier := server.TierID(0); tier < server.NumTiers; tier++ {
						ingest(i, tier, ts, vecs[tier][vi])
						done++
					}
				}
			}
			sync()
		}
		b.Run(fmt.Sprintf("unsharded/sites=%d", nSites), func(b *testing.B) {
			p, err := serve.NewPipeline(mon, serve.Config{Window: 30})
			if err != nil {
				b.Fatal(err)
			}
			runLeg(b, func(i int, tier server.TierID, ts float64, v []float64) {
				p.Ingest(serve.Sample{Site: names[i], Tier: tier, Time: ts, Values: v})
			}, func() {})
		})
		b.Run(fmt.Sprintf("sharded/sites=%d", nSites), func(b *testing.B) {
			sp, err := serve.NewShardedPipeline(mon, serve.Config{Window: 30}, serve.ShardConfig{})
			if err != nil {
				b.Fatal(err)
			}
			defer sp.Close()
			runLeg(b, func(i int, tier server.TierID, ts float64, v []float64) {
				sp.Ingest(serve.Sample{Site: names[i], Tier: tier, Time: ts, Values: v})
			}, sp.Sync)
		})
		b.Run(fmt.Sprintf("sharded-site/sites=%d", nSites), func(b *testing.B) {
			sp, err := serve.NewShardedPipeline(mon, serve.Config{Window: 30}, serve.ShardConfig{})
			if err != nil {
				b.Fatal(err)
			}
			defer sp.Close()
			refs := make([]serve.SiteRef, nSites)
			for i, name := range names {
				refs[i] = sp.Register(name)
			}
			bt := sp.NewBatcher()
			// Fused scrapes: b.N still counts per-tier samples so ns/op is
			// comparable across legs.
			var scrape [server.NumTiers][]float64
			for i := range names {
				for tier := range scrape {
					scrape[tier] = vecs[tier][0]
				}
				bt.AddSite(refs[i], 1, scrape)
			}
			bt.Flush()
			sp.Sync()
			b.ReportAllocs()
			b.ResetTimer()
			done := 0
			for sec := 2; done < b.N; sec++ {
				ts := float64(sec)
				vi := sec % n
				for tier := range scrape {
					scrape[tier] = vecs[tier][vi]
				}
				for i := 0; i < nSites && done < b.N; i++ {
					bt.AddSite(refs[i], ts, scrape)
					done += int(server.NumTiers)
				}
			}
			bt.Flush()
			sp.Sync()
		})
	}
}

// BenchmarkLoopbackFrames is the per-frame cost of the network path end
// to end: Sender → loopback TCP → FrameServer → Ingest → a two-shard
// pipeline, on five-scrape frames of the recorded HPC vectors, 64 sites
// round-robin. ns/op and allocs/op are per frame (ten tier-samples) and
// cover both ends — encode, the socket, decode, sequence accounting and
// the engine — because on loopback they share the processors.
func BenchmarkLoopbackFrames(b *testing.B) {
	_, mon, tr := fixture(b)
	vecs := secondVectors(tr)
	n := len(tr.SecTimes)
	sp, err := serve.NewShardedPipeline(mon, serve.Config{Window: 30}, serve.ShardConfig{Shards: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer sp.Close()
	ing := serve.NewIngest(sp)
	fsrv, err := serve.NewFrameServer(serve.ListenConfig{}, ing, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer fsrv.Close()
	const nSites, perFrame, queue = 64, 5, 4096
	snd, err := wire.NewSender(fsrv.Addr().String(), wire.AgentConfig{FrameSamples: perFrame, QueueFrames: queue})
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, nSites)
	for i := range names {
		names[i] = fmt.Sprintf("site-%06d", i)
	}
	samples := make([]wire.Sample, perFrame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round := i / nSites
		for k := range samples {
			sec := round*perFrame + k
			samples[k].Time = float64(sec + 1)
			for tier := range samples[k].Vecs {
				samples[k].Vecs[tier] = vecs[tier][sec%n]
			}
		}
		// Send has encoded the frame when it returns: samples is reused.
		snd.Send(&wire.Frame{Site: names[i%nSites], Seq: uint64(round), Samples: samples})
		if i%(queue/2) == queue/2-1 {
			snd.Flush() // the generator's only brake: never outrun the queue
		}
	}
	snd.Close()
	fsrv.WaitConns(1)
	sp.Sync()
	b.StopTimer()
	if st := snd.Stats(); st.Sent != uint64(b.N) || st.Dropped() != 0 {
		b.Fatalf("sender lost frames on a clean loopback: %+v", st)
	}
	var got uint64
	for _, t := range ing.TransportStats() {
		got += t.Frames
	}
	if got != uint64(b.N) {
		b.Fatalf("ingest accepted %d frames of %d", got, b.N)
	}
}
