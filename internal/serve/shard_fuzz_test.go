package serve_test

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"hpcap/internal/core"
	"hpcap/internal/serve"
	"hpcap/internal/server"
)

// FuzzShardConfig throws arbitrary shard counts at Validate and the
// constructor: Validate must never panic, it must agree with
// NewShardedPipeline about what is buildable, and every buildable
// count must round-trip a sample per shard without losing it.
func FuzzShardConfig(f *testing.F) {
	_, mon, tr := fixture(f)
	vecs := secondVectors(tr)
	for _, shards := range []int{0, 1, serve.MaxShards, serve.MaxShards + 1, -1, 8, 3, math.MinInt} {
		f.Add(shards)
	}
	f.Fuzz(func(t *testing.T, shards int) {
		cfg := serve.ShardConfig{Shards: shards}
		verrs := cfg.Validate()
		sp, perr := serve.NewShardedPipeline(mon, serve.Config{Window: 30}, cfg)
		if (len(verrs) == 0) != (perr == nil) {
			t.Fatalf("Validate says %v, constructor says %v", verrs, perr)
		}
		if len(verrs) > 0 {
			for _, verr := range verrs {
				if !errors.Is(verr, core.ErrBadConfig) {
					t.Fatalf("invalid config rejected with %v, want ErrBadConfig", verr)
				}
			}
			return
		}
		defer sp.Close()
		var offered uint64
		for i := 0; i < sp.Shards(); i++ {
			site := fmt.Sprintf("rt-%03d", i)
			for tier := server.TierID(0); tier < server.NumTiers; tier++ {
				sp.Ingest(serve.Sample{Site: site, Tier: tier, Time: 1, Values: vecs[tier][0]})
				offered++
			}
		}
		sp.Sync()
		tot := sp.Totals()
		if tot.Enqueued != offered || tot.Processed != offered {
			t.Fatalf("offered %d, enqueued %d, processed %d", offered, tot.Enqueued, tot.Processed)
		}
		var ingested uint64
		for _, s := range sp.Stats() {
			ingested += s.SamplesIngested
		}
		if ingested != offered {
			t.Fatalf("site counters absorb %d of %d offered samples", ingested, offered)
		}
	})
}

// FuzzShardQueue hammers the batch queue itself: arbitrary batch sizes
// and queue capacities (a geometry only tests choose), concurrent producers mixing named samples with
// fused scrapes through valid refs, zero refs, and refs stolen from a
// foreign pipeline, with Close racing the producers (close-while-full).
// The pipeline must never panic, and afterwards every offered queue slot
// must be accounted for: accepted ones all processed, and each processed
// slot either counted on a site (one sample for a named slot, NumTiers
// for a fused one) or counted as a bad ref — nothing dropped without a
// reason.
func FuzzShardQueue(f *testing.F) {
	_, mon, tr := fixture(f)
	vecs := secondVectors(tr)
	f.Add(uint16(1), uint16(1), uint16(64), uint16(0))
	f.Add(uint16(3), uint16(6), uint16(500), uint16(100))
	f.Add(uint16(64), uint16(64), uint16(1000), uint16(1))
	f.Add(uint16(100), uint16(400), uint16(2000), uint16(1999))
	f.Fuzz(func(t *testing.T, batchRaw, queueRaw, nRaw, closeRaw uint16) {
		g := geometry{shards: 3, batch: 1 + int(batchRaw%128), queue: 1 + int(queueRaw%512)}
		g.queue = max(g.queue, g.batch)
		perProducer := int(nRaw % 2048)
		closeAfter := int(closeRaw) % (perProducer + 1)

		sp := newSharded(t, mon, serve.Config{Window: 30}, g)
		// A foreign pipeline with a larger site table: its refs aimed at sp
		// either resolve to the wrong site (counted as ingested there) or
		// overrun the shard's table (counted as bad refs) — never panic.
		foreign := newSharded(t, mon, serve.Config{Window: 30}, g)
		defer foreign.Close()
		foreignRefs := make([]serve.SiteRef, 40)
		for i := range foreignRefs {
			foreignRefs[i] = foreign.Register(fmt.Sprintf("foreign-%03d", i))
		}

		var offered, fused, zeroRefs atomic.Uint64
		const nProducers = 2
		var wg sync.WaitGroup
		closed := make(chan struct{})
		for pr := 0; pr < nProducers; pr++ {
			pr := pr
			wg.Add(1)
			go func() {
				defer wg.Done()
				ref := sp.Register(fmt.Sprintf("own-%d", pr))
				bt := sp.NewBatcher()
				defer bt.Flush()
				var scrape [server.NumTiers][]float64
				for tier := range scrape {
					scrape[tier] = vecs[tier][0]
				}
				for i := 0; i < perProducer; i++ {
					tier := server.TierID(i % int(server.NumTiers))
					ts := float64(i + 1)
					switch i % 4 {
					case 0:
						sp.Ingest(serve.Sample{Site: fmt.Sprintf("own-%d", pr), Tier: tier, Time: ts, Values: vecs[tier][0]})
						offered.Add(1)
					case 1:
						bt.AddSite(ref, ts, scrape)
						offered.Add(1)
						fused.Add(1)
					case 2:
						bt.AddSite(serve.SiteRef{}, ts, scrape)
						zeroRefs.Add(1)
					case 3:
						bt.AddSite(foreignRefs[i%len(foreignRefs)], ts, scrape)
						offered.Add(1)
						fused.Add(1)
					}
				}
			}()
		}
		go func() {
			// Close races the producers at a fuzzed point in their stream;
			// with closeAfter 0 it may beat the very first sample.
			for int(sp.Totals().Enqueued) < closeAfter {
			}
			sp.Close()
			close(closed)
		}()
		wg.Wait()
		<-closed
		sp.Flush() // must be safe after Close (drains nothing)

		tot := sp.Totals()
		if got := tot.Enqueued + tot.RejectedClosed + zeroRefs.Load(); got != offered.Load()+zeroRefs.Load() {
			t.Fatalf("offered %d + %d zero refs; enqueued %d + rejected-closed %d + zero refs %d",
				offered.Load(), zeroRefs.Load(), tot.Enqueued, tot.RejectedClosed, zeroRefs.Load())
		}
		if tot.Processed != tot.Enqueued {
			t.Fatalf("Close returned with %d of %d accepted samples unprocessed", tot.Processed, tot.Enqueued)
		}
		var ingested uint64
		for _, s := range sp.Stats() {
			ingested += s.SamplesIngested
		}
		// Only fused slots carry refs, so each unresolvable one stands for
		// NumTiers samples; what the sites absorbed beyond one sample per
		// processed slot is then the fused slots' extra tiers, and the
		// processed fused slots it implies must lie between those offered
		// less any Close rejected and those offered.
		engineBadRefs := tot.RejectedRef - zeroRefs.Load()
		carried := ingested + engineBadRefs*uint64(server.NumTiers)
		if carried < tot.Processed || (carried-tot.Processed)%uint64(server.NumTiers-1) != 0 {
			t.Fatalf("processed %d slots, but sites absorbed %d samples and %d slots had unresolvable refs — samples vanished without a counted reason",
				tot.Processed, ingested, engineBadRefs)
		}
		fusedDone := (carried - tot.Processed) / uint64(server.NumTiers-1)
		if fusedDone > fused.Load() || fusedDone+tot.RejectedClosed < fused.Load() {
			t.Fatalf("%d fused slots offered, %d rejected by Close at most, but the counters imply %d processed — samples vanished without a counted reason",
				fused.Load(), tot.RejectedClosed, fusedDone)
		}
	})
}
