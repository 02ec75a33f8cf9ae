package serve

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"hpcap/internal/chunk"
	"hpcap/internal/fuse"
	"hpcap/internal/server"
)

// storageLoad is the load reading of one site's tier at one second: blocks
// of underload and overload on the hot tier (so the GPV changes from window
// to window) plus a per-second ripple that makes every window mean unique.
func storageLoad(site, tier, sec int) float64 {
	load := 0.2 + 0.001*float64((sec*7+site*13+tier*3)%97)
	if (sec/9+site)%3 == 0 && tier == site%int(server.NumTiers) {
		load += 0.6
	}
	return load
}

// TestDecisionOwnsItsStorage pins that a decision's Vectors and GPV are its
// own for as long as it is retained: the engine carves them from shared
// chunks, and a spent chunk must be replaced, never rewritten. Every
// decision over several chunk turnovers, partial windows included, is kept
// and compared bit for bit with a deep copy taken in the callback, once
// right away and again after as many windows more.
func TestDecisionOwnsItsStorage(t *testing.T) {
	type kept struct {
		d       Decision
		vectors [server.NumTiers][]float64
		gpv     []int
	}
	var all []kept
	cfg := Config{Window: 3, OnDecision: func(d Decision) {
		k := kept{d: d, gpv: slices.Clone(d.Prediction.GPV)}
		for tier := range d.Vectors {
			k.vectors[tier] = slices.Clone(d.Vectors[tier])
		}
		all = append(all, k)
	}}
	p, err := NewPipeline(trainTestMonitor(t, 0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	const nSites = 4
	sec := 0
	feed := func(seconds int) {
		for end := sec + seconds; sec < end; {
			sec++
			for s := 0; s < nSites; s++ {
				for tier := server.TierID(0); tier < server.NumTiers; tier++ {
					if tier == 1 && (sec+s)%20 == 0 {
						continue // one lost sample: the window decides degraded
					}
					p.Ingest(Sample{Site: fmt.Sprintf("s%d", s), Tier: tier, Time: float64(sec),
						Values: []float64{storageLoad(s, int(tier), sec), float64((sec + s + int(tier)) % 5)}})
				}
			}
		}
	}
	check := func(when string) {
		t.Helper()
		for n, k := range all {
			for tier := range k.vectors {
				got, want := k.d.Vectors[tier], k.vectors[tier]
				if len(got) != len(want) || !slices.EqualFunc(got, want, func(a, b float64) bool {
					return math.Float64bits(a) == math.Float64bits(b)
				}) {
					t.Fatalf("%s: decision %d (%s seq %d) tier %d vector %v, decided as %v",
						when, n, k.d.Site, k.d.Seq, tier, got, want)
				}
			}
			if !slices.Equal(k.d.Prediction.GPV, k.gpv) {
				t.Fatalf("%s: decision %d (%s seq %d) GPV %v, decided as %v",
					when, n, k.d.Site, k.d.Seq, k.d.Prediction.GPV, k.gpv)
			}
		}
	}

	feed(150)
	decided, degraded := len(all), 0
	gpvs := map[string]bool{}
	for _, k := range all {
		if k.d.Degraded {
			degraded++
		}
		gpvs[fmt.Sprint(k.gpv)] = true
	}
	if decided <= 3*chunk.Carves {
		t.Fatalf("%d decisions turn over fewer than 3 chunks of %d windows", decided, chunk.Carves)
	}
	if degraded == 0 || len(gpvs) < 2 {
		t.Fatalf("%d degraded decisions and %d distinct GPVs: the stream does not exercise partial windows and changing verdicts", degraded, len(gpvs))
	}
	for _, st := range p.Stats() {
		if n := st.HealthTransitions[HealthDegraded][HealthHealthy]; n == 0 {
			t.Fatalf("%s never recovered from a partial window", st.Site)
		}
	}
	check("at once")
	feed(150)
	p.Flush()
	if len(all) < 2*decided {
		t.Fatalf("%d decisions after the second stretch, want at least %d", len(all), 2*decided)
	}
	check("after more windows")
}

// TestDecidedWindowAllocs prices a warm decided window on both fronts,
// fusion off and on: with decision storage carved from chunks and the
// publication queue recycled, the only allocations left are two chunks
// (means and GPVs) per chunk.Carves windows, well under one per eight
// windows. A Sync allocates nothing, so the sharded front is held to the
// inline front's own count.
func TestDecidedWindowAllocs(t *testing.T) {
	const nSites, window = 128, 3
	mon := trainTestMonitor(t, 0)
	names := make([]string, nSites)
	vals := make([][server.NumTiers][]float64, nSites*window)
	for s := range names {
		names[s] = fmt.Sprintf("site-%02d", s)
		for k := 0; k < window; k++ {
			for tier := range vals[s*window+k] {
				vals[s*window+k][tier] = []float64{storageLoad(s, tier, k), float64((s + tier + k) % 5)}
			}
		}
	}
	for _, fused := range []bool{false, true} {
		var decided atomic.Int64
		cfg := Config{Window: window, OnDecision: func(Decision) { decided.Add(1) }}
		if fused {
			cfg.Fuse = &fuse.Config{}
		}
		p, err := NewPipeline(mon, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sec := 0
		inline := func() {
			for k := 0; k < window; k++ {
				sec++
				for s, name := range names {
					for tier := server.TierID(0); tier < server.NumTiers; tier++ {
						p.Ingest(Sample{Site: name, Tier: tier, Time: float64(sec), Values: vals[s*window+k][tier]})
					}
				}
			}
		}

		sp, err := NewShardedGeometry(mon, cfg, 2, 16, 4096/16)
		if err != nil {
			t.Fatal(err)
		}
		b := sp.NewBatcher()
		refs := make([]SiteRef, nSites)
		for s, name := range names {
			refs[s] = sp.Register(name)
		}
		ssec := 0
		sharded := func() {
			for k := 0; k < window; k++ {
				ssec++
				for s, ref := range refs {
					b.AddSite(ref, float64(ssec), vals[s*window+k])
				}
			}
			b.Flush()
			sp.Sync()
		}

		budget := nSites / 8.0 // allocations per run; then what the inline front read
		for _, front := range []struct {
			name string
			run  func()
		}{{"Pipeline", inline}, {"ShardedPipeline", sharded}} {
			for range 2 * chunk.Carves {
				front.run() // warm: every queue and scratch slice at full size
			}
			decided.Store(0)
			const runs = 100
			allocs := testing.AllocsPerRun(runs, front.run)
			perWindow := allocs / nSites
			t.Logf("%s fuse=%v: %.2f allocations per run, %.4f per decided window", front.name, fused, allocs, perWindow)
			if n := decided.Load(); n != (runs+1)*nSites {
				t.Fatalf("%s fuse=%v: %d decisions over %d runs of %d sites", front.name, fused, n, runs+1, nSites)
			}
			if allocs > budget {
				t.Errorf("%s fuse=%v: %.2f allocations per run, want <= %.2f", front.name, fused, allocs, budget)
			}
			budget = allocs
		}
		sp.Close()
	}
}
