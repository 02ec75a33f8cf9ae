package chaos

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"hpcap/internal/chunk"
	"hpcap/internal/core"
	"hpcap/internal/metrics"
	"hpcap/internal/serve"
	"hpcap/internal/server"
)

func mustParse(t *testing.T, text string) Schedule {
	t.Helper()
	s, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse(%q): %v", text, err)
	}
	return s
}

func TestScheduleRoundTrip(t *testing.T) {
	texts := []string{
		"drop tier=app at=120 for=60 p=0.25",
		"outage at=300 for=30",
		"stall tier=db at=500 for=10 n=6",
		"nan tier=all at=0 for=1 p=1; skew tier=app at=0.5 for=2.25 p=-3.5",
		"dup at=7 for=3 p=0.125\nstuck tier=db at=7 for=3",
		"",
	}
	for _, text := range texts {
		s := mustParse(t, text)
		canon := s.String()
		back, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(String(%q)) = %q failed: %v", text, canon, err)
		}
		if got := back.String(); got != canon {
			t.Errorf("round trip of %q: %q -> %q", text, canon, got)
		}
	}
}

func TestParseDefaults(t *testing.T) {
	s := mustParse(t, "drop for=30; stall for=10; outage for=5")
	if f := s.Faults[0]; f.Tier != AllTiers || f.Start != 0 || f.P != 1 {
		t.Errorf("drop defaults: %+v, want tier=all at=0 p=1", f)
	}
	if f := s.Faults[1]; f.N != 5 {
		t.Errorf("stall default n=%d, want 5", f.N)
	}
	if f := s.Faults[2]; f.P != 0 || f.N != 0 {
		t.Errorf("outage defaults: %+v, want p=0 n=0", f)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"explode for=10",         // unknown kind
		"drop tier=cache for=10", // unknown tier
		"drop at=10",             // missing for=
		"drop for=-5",            // negative duration
		"drop for=10 p=1.5",      // probability out of range
		"drop for=10 p=NaN",      // NaN probability
		"drop for=10 volume=11",  // unknown field
		"drop for=10 p",          // field without value
		"stall for=10 n=-1",      // negative depth
		"skew for=10 p=Inf",      // infinite skew
		"drop at=-1 for=10",      // negative start
		"drop at=Inf for=10",     // infinite start
		"drop for=10 n=zz",       // unparsable int
		"drop tier=9 for=10",     // numeric tier out of range
	}
	for _, text := range bad {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) accepted garbage", text)
		}
	}
}

func TestScheduleDuration(t *testing.T) {
	s := mustParse(t, "drop at=10 for=5; outage at=100 for=30; nan for=1")
	if got := s.Duration(); got != 130 {
		t.Errorf("Duration() = %g, want 130", got)
	}
	if got := (Schedule{}).Duration(); got != 0 {
		t.Errorf("empty Duration() = %g, want 0", got)
	}
}

// sampleAt builds a clean 2-component sample for a site and tier.
func sampleAt(site string, tier server.TierID, t float64) serve.Sample {
	return serve.Sample{Site: site, Tier: tier, Time: t, Values: []float64{t, 100 - t}}
}

func TestInjectorDrop(t *testing.T) {
	in := NewInjector(mustParse(t, "drop tier=app at=0 for=100 p=1"), 1)
	for i := 0; i < 10; i++ {
		if out := in.Apply(sampleAt("s", server.TierApp, float64(i))); len(out) != 0 {
			t.Fatalf("drop p=1 emitted %d samples at t=%d", len(out), i)
		}
	}
	if out := in.Apply(sampleAt("s", server.TierDB, 0)); len(out) != 1 {
		t.Fatalf("drop on app dropped a db sample")
	}
	st := in.Stats()
	if st.Dropped != 10 || st.Offered != 11 || st.Emitted != 1 {
		t.Errorf("stats %+v, want 10 dropped of 11 offered, 1 emitted", st)
	}
}

func TestInjectorNaNCopiesValues(t *testing.T) {
	in := NewInjector(mustParse(t, "nan at=0 for=100 p=1"), 1)
	s := sampleAt("s", server.TierApp, 1)
	orig := append([]float64(nil), s.Values...)
	out := in.Apply(s)
	if len(out) != 1 || !math.IsNaN(out[0].Values[0]) {
		t.Fatalf("nan p=1 emitted %v, want first component NaN", out)
	}
	for i, v := range s.Values {
		if v != orig[i] {
			t.Fatalf("input Values mutated: %v != %v", s.Values, orig)
		}
	}
}

func TestInjectorStuckReplaysLastClean(t *testing.T) {
	in := NewInjector(mustParse(t, "stuck tier=db at=10 for=20"), 1)
	clean := in.Apply(sampleAt("s", server.TierDB, 5))
	if len(clean) != 1 {
		t.Fatal("pre-fault sample did not pass through")
	}
	want := clean[0].Values
	for _, ts := range []float64{10, 15, 29} {
		out := in.Apply(sampleAt("s", server.TierDB, ts))
		if len(out) != 1 {
			t.Fatalf("stuck dropped the sample at t=%g", ts)
		}
		for i, v := range out[0].Values {
			if v != want[i] {
				t.Fatalf("t=%g values %v, want frozen %v", ts, out[0].Values, want)
			}
		}
		if out[0].Time != ts {
			t.Errorf("stuck rewrote the timestamp: %g", out[0].Time)
		}
	}
	if got := in.Stats().Frozen; got != 3 {
		t.Errorf("Frozen = %d, want 3", got)
	}
}

func TestInjectorStallBoundedLatency(t *testing.T) {
	in := NewInjector(mustParse(t, "stall tier=app at=0 for=100 n=3"), 1)
	var emitted []serve.Sample
	for i := 0; i < 7; i++ {
		emitted = append(emitted, in.Apply(sampleAt("s", server.TierApp, float64(i)))...)
	}
	// n=3: samples release in bursts of three; 7 fed -> 6 released.
	if len(emitted) != 6 {
		t.Fatalf("stall n=3 released %d of 7, want 6", len(emitted))
	}
	for i, s := range emitted {
		if s.Time != float64(i) {
			t.Fatalf("stall reordered: position %d has t=%g", i, s.Time)
		}
	}
	rest := in.Drain()
	if len(rest) != 1 || rest[0].Time != 6 {
		t.Fatalf("Drain released %v, want the one held sample t=6", rest)
	}
}

// TestInjectorOutputsOwnTheirValues: Apply returns per-tier scratch, but
// the samples in it are the caller's to keep. The NaN and stuck copies are
// carved from the injector's chunk, so every emitted sample retained over
// several chunk turnovers (stalls, dups and clean samples among them) must
// stay bit-identical through 100 more Apply calls.
func TestInjectorOutputsOwnTheirValues(t *testing.T) {
	const kept, more = 400, 100
	in := NewInjector(mustParse(t, "nan tier=app at=0 for=500 p=0.5; stuck tier=db at=100 for=200; "+
		"stall tier=app at=200 for=50 n=3; dup at=300 for=50 p=0.5"), 3)
	var emitted []serve.Sample
	var bits [][]uint64
	for i := 0; i < kept+more; i++ {
		for tier := server.TierID(0); tier < server.NumTiers; tier++ {
			for _, out := range in.Apply(sampleAt("s", tier, float64(i))) {
				if i >= kept {
					continue
				}
				b := make([]uint64, len(out.Values))
				for j, x := range out.Values {
					b[j] = math.Float64bits(x)
				}
				emitted, bits = append(emitted, out), append(bits, b)
			}
		}
	}
	st := in.Stats()
	if st.Corrupted < 3*chunk.Carves || st.Frozen < 3*chunk.Carves || st.Stalled == 0 || st.Duplicated == 0 {
		t.Fatalf("stats %+v: want several chunks of NaN and stuck copies, and stalls and dups", st)
	}
	for k, s := range emitted {
		for j, x := range s.Values {
			if math.Float64bits(x) != bits[k][j] {
				t.Fatalf("emitted sample %d (tier %s, t=%g) changed after later Apply calls", k, s.Tier, s.Time)
			}
		}
	}
}

func TestInjectorDupAndSkew(t *testing.T) {
	// Faults apply in schedule order: the skew shifts the sample before
	// the dup copies it, so both emissions carry the skewed timestamp.
	in := NewInjector(mustParse(t, "skew at=0 for=10 p=2.5; dup at=0 for=10 p=1"), 1)
	out := in.Apply(sampleAt("s", server.TierApp, 1))
	if len(out) != 2 {
		t.Fatalf("dup p=1 emitted %d samples, want 2", len(out))
	}
	for _, s := range out {
		if s.Time != 3.5 {
			t.Errorf("skew p=2.5 gave t=%g, want 3.5", s.Time)
		}
	}
}

func TestInjectorOutageBeatsEverything(t *testing.T) {
	in := NewInjector(mustParse(t, "outage at=0 for=10; dup at=0 for=10 p=1"), 1)
	if out := in.Apply(sampleAt("s", server.TierApp, 1)); len(out) != 0 {
		t.Fatalf("outage emitted %d samples", len(out))
	}
}

func TestInjectorMalformedTierPassesThrough(t *testing.T) {
	in := NewInjector(mustParse(t, "drop at=0 for=100 p=1"), 1)
	s := serve.Sample{Site: "s", Tier: server.TierID(9), Time: 1, Values: []float64{1}}
	if out := in.Apply(s); len(out) != 1 || out[0].Tier != server.TierID(9) {
		t.Fatalf("malformed tier not passed through: %v", out)
	}
}

// TestInjectorDeterministicAcrossInterleavings is the injector's core
// guarantee: per-site fault outcomes depend only on (schedule, seed, site,
// tier, ordinal), so feeding eight sites from eight goroutines produces
// exactly the per-site streams a sequential feed does.
func TestInjectorDeterministicAcrossInterleavings(t *testing.T) {
	const (
		sites   = 8
		seconds = 200
	)
	sched := mustParse(t,
		"drop tier=app at=20 for=40 p=0.3; nan tier=db at=50 for=30 p=0.5; "+
			"stuck tier=app at=90 for=20; stall tier=db at=110 for=25 n=4; "+
			"dup at=140 for=20 p=0.4; skew tier=app at=160 for=10 p=0.75; outage at=180 for=10")

	render := func(in *Injector, name string, feed func(func())) string {
		var mu sync.Mutex
		logs := make(map[string]*strings.Builder)
		run := func(site string) {
			var b strings.Builder
			for i := 0; i < seconds; i++ {
				for tier := server.TierID(0); tier < server.NumTiers; tier++ {
					for _, out := range in.Apply(sampleAt(site, tier, float64(i))) {
						fmt.Fprintf(&b, "%s %d %g %v\n", out.Site, out.Tier, out.Time, out.Values)
					}
				}
			}
			mu.Lock()
			logs[site] = &b
			mu.Unlock()
		}
		_ = name
		var wg sync.WaitGroup
		for i := 0; i < sites; i++ {
			site := fmt.Sprintf("site-%d", i)
			wg.Add(1)
			go func() {
				defer wg.Done()
				feed(func() { run(site) })
			}()
		}
		wg.Wait()
		var b strings.Builder
		for i := 0; i < sites; i++ {
			b.WriteString(logs[fmt.Sprintf("site-%d", i)].String())
		}
		return b.String()
	}

	var seqGate sync.Mutex
	seq := render(NewInjector(sched, 42), "seq", func(f func()) {
		seqGate.Lock()
		defer seqGate.Unlock()
		f()
	})
	par := render(NewInjector(sched, 42), "par", func(f func()) { f() })
	if seq != par {
		t.Fatal("concurrent feed diverged from sequential feed")
	}
	other := render(NewInjector(sched, 43), "other", func(f func()) { f() })
	if other == seq {
		t.Fatal("different seeds produced identical fault streams")
	}
}

func TestValidateRejectsBadFaults(t *testing.T) {
	bad := []Fault{
		{Kind: 0, Duration: 1},
		{Kind: KindDrop, Tier: server.TierID(5), Duration: 1},
		{Kind: KindDrop, Start: math.NaN(), Duration: 1},
		{Kind: KindDrop, Duration: 0},
		{Kind: KindDrop, Duration: math.Inf(1)},
		{Kind: KindNaN, Duration: 1, P: 2},
		{Kind: KindSkew, Duration: 1, P: math.Inf(1)},
		{Kind: KindStall, Duration: 1, N: -1},
		{Kind: KindStuck, Duration: 1, P: math.NaN()},
	}
	for i, f := range bad {
		errs := (Schedule{Faults: []Fault{f}}).Validate()
		if len(errs) == 0 {
			t.Errorf("case %d: Validate accepted %+v", i, f)
			continue
		}
		for _, err := range errs {
			if !errors.Is(err, core.ErrBadConfig) {
				t.Errorf("case %d: error %v does not wrap ErrBadConfig", i, err)
			}
		}
	}
}

// timeCollector reports the snapshot time as its single metric, making
// staleness visible in the vector itself.
type timeCollector struct{ tier server.TierID }

func (c timeCollector) Tier() server.TierID { return c.tier }
func (c timeCollector) Names() []string     { return []string{"t"} }
func (c timeCollector) CollectTo(dst []float64, s server.Snapshot, dt float64) []float64 {
	return append(dst[:0], s.Time)
}

func TestFlakyCollectorFailsByTierAndWindow(t *testing.T) {
	sched := mustParse(t, "outage tier=db at=10 for=5; stall tier=app at=20 for=5 n=2")
	db := NewFlakyCollector(timeCollector{server.TierDB}, sched)
	if _, err := db.TryCollectTo(nil, server.Snapshot{Time: 12}, 1); err == nil {
		t.Error("db read succeeded inside the outage window")
	}
	if v, err := db.TryCollectTo(nil, server.Snapshot{Time: 16}, 1); err != nil || v[0] != 16 {
		t.Errorf("db read after the outage: v=%v err=%v", v, err)
	}
	app := NewFlakyCollector(timeCollector{server.TierApp}, sched)
	if _, err := app.TryCollectTo(nil, server.Snapshot{Time: 12}, 1); err != nil {
		t.Errorf("db outage leaked onto the app collector: %v", err)
	}
	if _, err := app.TryCollectTo(nil, server.Snapshot{Time: 21}, 1); err == nil {
		t.Error("app read succeeded inside the stall window")
	}
}

// TestFlakyThroughRetry wires the two halves together the way the CLIs
// do: inside a fault window every retry fails deterministically (same
// snapshot time), so the retrier serves the last pre-fault vector; once
// the window lapses, reads recover without intervention.
func TestFlakyThroughRetry(t *testing.T) {
	sched := mustParse(t, "outage tier=db at=10 for=5")
	r := metrics.NewRetryCollector(NewFlakyCollector(timeCollector{server.TierDB}, sched), 2)
	if got := r.Collect(server.Snapshot{Time: 5}, 1); got[0] != 5 {
		t.Fatalf("pre-fault read = %v", got)
	}
	if got := r.Collect(server.Snapshot{Time: 12}, 1); got[0] != 5 {
		t.Fatalf("in-fault read = %v, want the stale t=5 vector", got)
	}
	if r.Retries() != 2 || r.Failures() != 1 {
		t.Errorf("retries=%d failures=%d, want 2 and 1", r.Retries(), r.Failures())
	}
	if got := r.Collect(server.Snapshot{Time: 16}, 1); got[0] != 16 {
		t.Fatalf("post-fault read = %v, want fresh t=16", got)
	}
}

// FuzzFaultScheduleParse pins two properties: Parse never panics on
// arbitrary text, and any schedule it accepts round-trips through its
// canonical String form byte-for-byte.
func FuzzFaultScheduleParse(f *testing.F) {
	f.Add("drop tier=app at=120 for=60 p=0.25")
	f.Add("outage at=300 for=30; stall tier=db at=500 for=10 n=6")
	f.Add("nan for=1\nskew tier=all at=1e9 for=0.001 p=-17")
	f.Add("dup p=0.5")
	f.Add(";;;")
	f.Add("drop tier== for=1")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(text)
		if err != nil {
			return
		}
		canon := s.String()
		back, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted input %q does not re-parse: %v", canon, text, err)
		}
		if got := back.String(); got != canon {
			t.Fatalf("canonical form not a fixed point: %q -> %q", canon, got)
		}
	})
}
