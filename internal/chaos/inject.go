package chaos

import (
	"math"
	"sort"
	"sync"

	"hpcap/internal/chunk"
	"hpcap/internal/serve"
	"hpcap/internal/server"
)

// Stats counts what an Injector did to the stream, by fault kind. Totals
// are deterministic for a given (schedule, seed, per-site stream): the
// per-sample coin flips are keyed by site, tier, and per-tier ordinal, so
// concurrent feeding changes nothing.
type Stats struct {
	Offered uint64 // samples presented to Apply
	Emitted uint64 // samples returned for ingestion (dups add, drops subtract)

	Dropped    uint64 // lost to KindDrop
	Corrupted  uint64 // NaN-poisoned by KindNaN
	Frozen     uint64 // rewritten to the last clean vector by KindStuck
	Stalled    uint64 // held back at least once by KindStall
	Duplicated uint64 // extra copies emitted by KindDup
	Skewed     uint64 // timestamps shifted by KindSkew
	Outaged    uint64 // lost to KindOutage
}

// Injected sums the per-kind fault counts — how many times the injector
// touched the stream at all.
func (s Stats) Injected() uint64 {
	return s.Dropped + s.Corrupted + s.Frozen + s.Stalled + s.Duplicated + s.Skewed + s.Outaged
}

// tierState is the injector's per-(site, tier) memory.
type tierState struct {
	ord  uint64         // samples seen, the hash counter
	last []float64      // last clean vector (KindStuck replays it)
	held []serve.Sample // samples queued by KindStall, delivery order
	out  []serve.Sample // Apply's result, reused by the tier's next Apply
}

// siteState is the injector's per-site memory.
type siteState struct {
	key   uint64 // hash of the site name, mixed into every coin flip
	tiers [server.NumTiers]*tierState
}

// Injector applies a FaultSchedule to a serve.Sample stream. Feed every
// sample through Apply and ingest whatever it returns; call Drain at end
// of stream to flush samples still held by an active stall. Safe for
// concurrent use by multiple sites; samples of one site must be applied
// in stream order (the same contract serve.Pipeline.Ingest has).
type Injector struct {
	sched Schedule
	seed  int64

	mu    sync.Mutex
	sites map[string]*siteState
	stats Stats
	vals  chunk.Of[float64] // the NaN and stuck copies
}

// NewInjector builds an injector for a validated schedule. The seed
// selects the coin-flip universe: same schedule + same seed + same stream
// ⇒ identical faults, byte for byte.
func NewInjector(sched Schedule, seed int64) *Injector {
	return &Injector{sched: sched, seed: seed, sites: make(map[string]*siteState)}
}

// Stats returns a snapshot of the fault counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// site returns the per-site state, creating it on first use.
func (in *Injector) site(name string) *siteState {
	st, ok := in.sites[name]
	if !ok {
		st = &siteState{key: hashString(name)}
		for tier := range st.tiers {
			st.tiers[tier] = &tierState{}
		}
		in.sites[name] = st
	}
	return st
}

// Apply runs one sample through the schedule and returns the samples to
// actually deliver: usually the sample itself (possibly corrupted, frozen,
// or skewed), preceded by any stalled backlog due for release, duplicated
// or dropped as the active faults dictate. The input sample's Values slice
// is never mutated; corruption copies first, into a vector the sample
// owns for good (carved, see package chunk).
//
// The returned slice is scratch of the sample's site and tier: it is
// valid until the next Apply for that site and tier, so range over it at
// once. The samples in it, and their Values, may be kept.
func (in *Injector) Apply(s serve.Sample) []serve.Sample {
	if s.Tier < 0 || s.Tier >= server.NumTiers {
		// Malformed tier: pass through untouched, the pipeline's shape
		// validation owns it.
		in.mu.Lock()
		in.stats.Offered++
		in.stats.Emitted++
		in.mu.Unlock()
		return []serve.Sample{s}
	}

	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Offered++
	site := in.site(s.Site)
	ts := site.tiers[s.Tier]
	ts.out = in.apply(site, ts, s, ts.out[:0])
	return ts.out
}

// apply is Apply's body under in.mu: it appends the samples to deliver
// to out.
func (in *Injector) apply(site *siteState, ts *tierState, s serve.Sample, out []serve.Sample) []serve.Sample {
	ord := ts.ord
	ts.ord++
	stalled := false
	for i, f := range in.sched.Faults {
		// Wire-level kinds act on frames (LinkInjector), not samples.
		if wireKind(f.Kind) || !f.active(s.Time, s.Tier) {
			continue
		}
		u := coin(in.seed, site.key, uint64(s.Tier), ord, uint64(i))
		switch f.Kind {
		case KindOutage:
			in.stats.Outaged++
			return in.release(ts, out)
		case KindDrop:
			if u < f.P {
				in.stats.Dropped++
				return in.release(ts, out)
			}
		case KindStuck:
			if ts.last != nil {
				s.Values = in.copyValues(ts.last)
				in.stats.Frozen++
			}
		case KindNaN:
			if u < f.P {
				s.Values = in.copyValues(s.Values)
				s.Values[0] = math.NaN()
				in.stats.Corrupted++
			}
		case KindSkew:
			s.Time += f.P
			in.stats.Skewed++
		case KindStall:
			stalled = true
			ts.held = append(ts.held, s)
			in.stats.Stalled++
			if len(ts.held) >= f.N {
				// Bounded latency: the backlog is full, flush it.
				out = in.release(ts, out)
			}
		case KindDup:
			if u < f.P {
				out = append(out, s)
				in.stats.Duplicated++
				in.stats.Emitted++
			}
		}
	}
	if stalled {
		return out
	}
	// A clean (or merely perturbed) sample releases any stalled backlog
	// whose fault window has lapsed, then follows it in delivery order.
	out = in.release(ts, out)
	if finiteValues(s.Values) {
		ts.last = append(ts.last[:0], s.Values...)
	}
	out = append(out, s)
	in.stats.Emitted++
	return out
}

// copyValues returns a copy of v carved from the injector's chunk (nil
// for an empty v). Callers hold in.mu.
func (in *Injector) copyValues(v []float64) []float64 {
	c := in.vals.Carve(len(v))
	copy(c, v)
	return c
}

// release appends the tier's held samples to out in arrival order and
// clears the backlog. Callers hold in.mu.
func (in *Injector) release(ts *tierState, out []serve.Sample) []serve.Sample {
	if len(ts.held) == 0 {
		return out
	}
	out = append(out, ts.held...)
	in.stats.Emitted += uint64(len(ts.held))
	ts.held = ts.held[:0]
	return out
}

// Drain flushes every site's stalled backlog (end of stream), ordered by
// site name then tier for deterministic delivery.
func (in *Injector) Drain() []serve.Sample {
	in.mu.Lock()
	defer in.mu.Unlock()
	names := make([]string, 0, len(in.sites))
	for name := range in.sites {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []serve.Sample
	for _, name := range names {
		for _, ts := range in.sites[name].tiers {
			out = in.release(ts, out)
		}
	}
	return out
}

// finiteValues reports whether every component is finite — corrupted
// vectors must not poison the stuck-replay buffer.
func finiteValues(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// hashString is FNV-1a over the site name.
func hashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// coin derives a uniform [0,1) variate from the run seed and the sample's
// coordinates — a stateless splitmix64 chain, so the flip for a given
// (site, tier, ordinal, fault) never depends on goroutine interleaving.
func coin(seed int64, site, tier, ord, fault uint64) float64 {
	h := uint64(seed)
	for _, v := range [...]uint64{site, tier, ord, fault} {
		h = splitmix64(h ^ v)
	}
	return float64(h>>11) / (1 << 53)
}

// splitmix64 is the finalizer from Steele et al.'s SplittableRandom.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d4490d9b23e36d
	x ^= x >> 31
	return x
}
