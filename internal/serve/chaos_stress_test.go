package serve_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"hpcap/internal/chaos"
	"hpcap/internal/serve"
	"hpcap/internal/server"
)

// TestChaosRaceStress replays the recorded trace into a chaos-wrapped
// pipeline for eight sites at once — each site hot-swapping its model
// mid-storm — and requires the per-site decision streams to be
// byte-identical to a sequential replay of the same program. Run under
// -race (the CI race leg does) this is the tentpole's concurrency proof:
// fault injection, degradation tracking, and hot-swaps never race, and
// goroutine interleaving never changes an outcome.
func TestChaosRaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the trace 16 times; skipped in -short")
	}
	lab, mon, tr := fixture(t)
	vecs := secondVectors(tr)
	window := lab.Scale.Window
	const nSites = 8
	sched, err := chaos.Parse(
		"nan tier=app at=100 for=60 p=0.3; stuck tier=db at=160 for=30; " +
			"drop at=220 for=60 p=0.15; outage tier=db at=300 for=35; " +
			"dup tier=app at=350 for=40 p=0.5; skew at=400 for=30 p=0.25; " +
			"stall tier=db at=450 for=30 n=4")
	if err != nil {
		t.Fatal(err)
	}

	// run replays every site through one injector and one pipeline; when
	// concurrent, each site feeds from its own goroutine. Each site swaps
	// its model (same monitor, new version) at a fixed point mid-storm, so
	// swaps race the fault window under the concurrent schedule while
	// remaining at a deterministic stream position.
	run := func(concurrent bool) map[string]string {
		in := chaos.NewInjector(sched, 7)
		var mu sync.Mutex
		decisions := make(map[string][]serve.Decision)
		p, err := serve.NewPipeline(mon, serve.Config{
			Window: window,
			OnDecision: func(d serve.Decision) {
				mu.Lock()
				decisions[d.Site] = append(decisions[d.Site], d)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		swapAt := len(tr.SecTimes) / 2
		feed := func(site string) {
			for i, ts := range tr.SecTimes {
				if i == swapAt {
					if _, err := p.SwapMonitor(site, mon, 1); err != nil {
						t.Errorf("%s: swap: %v", site, err)
						return
					}
				}
				for tier := server.TierID(0); tier < server.NumTiers; tier++ {
					for _, out := range in.Apply(serve.Sample{Site: site, Tier: tier, Time: ts, Values: vecs[tier][i]}) {
						p.Ingest(out)
					}
				}
			}
		}
		if concurrent {
			var wg sync.WaitGroup
			for i := 0; i < nSites; i++ {
				site := fmt.Sprintf("site-%d", i)
				wg.Add(1)
				go func() {
					defer wg.Done()
					feed(site)
				}()
			}
			wg.Wait()
		} else {
			for i := 0; i < nSites; i++ {
				feed(fmt.Sprintf("site-%d", i))
			}
		}
		for _, s := range in.Drain() {
			p.Ingest(s)
		}
		p.Flush()

		out := make(map[string]string, nSites)
		for i := 0; i < nSites; i++ {
			site := fmt.Sprintf("site-%d", i)
			var b strings.Builder
			for _, d := range decisions[site] {
				fmt.Fprintf(&b, "v%d %s", d.ModelVersion, formatDecisions([]serve.Decision{d}))
			}
			st, ok := p.SiteStats(site)
			if !ok {
				t.Fatalf("%s: no stats", site)
			}
			if st.ModelSwaps != 1 {
				t.Errorf("%s: %d swaps, want 1", site, st.ModelSwaps)
			}
			if st.WindowsDecided == 0 {
				t.Errorf("%s: no decisions under chaos", site)
			}
			if st.HealthChanges() == 0 {
				t.Errorf("%s: the storm never moved the degradation ladder", site)
			}
			fmt.Fprintf(&b, "health=%s transitions=%d degraded=%d dropped=%d resets=%d\n",
				st.Health, st.HealthChanges(), st.WindowsDegraded, st.WindowsDropped, st.SessionResets)
			out[site] = b.String()
		}
		return out
	}

	seq := run(false)
	par := run(true)
	for site, want := range seq {
		if got := par[site]; got != want {
			t.Errorf("%s diverged under concurrency\n--- sequential ---\n%s--- concurrent ---\n%s", site, want, got)
		}
	}
}

// FuzzPipelineIngestFaulty throws arbitrary sample shapes, values, and
// timestamps at a live pipeline: it must never panic, and every offered
// sample must either reach the aggregator or be counted under exactly one
// skip reason — the fuzz-hardened form of the skip-accounting contract.
func FuzzPipelineIngestFaulty(f *testing.F) {
	lab, mon, tr := fixture(f)
	vecs := secondVectors(tr)
	window := lab.Scale.Window
	dim := mon.InputDim()
	f.Add(0, 31.0, []byte{})
	f.Add(1, math.NaN(), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(9, math.Inf(1), bytes8(math.NaN()))
	f.Add(-1, 60.0, bytes8(math.Inf(-1)))
	f.Add(0, 1e300, bytes8(12.5))
	f.Fuzz(func(t *testing.T, tier int, ts float64, raw []byte) {
		p, err := serve.NewPipeline(mon, serve.Config{Window: window})
		if err != nil {
			t.Fatal(err)
		}
		// A short clean prefix so the fuzzed sample can also be "late".
		for i := 0; i < 2*window; i++ {
			for tr2 := server.TierID(0); tr2 < server.NumTiers; tr2++ {
				p.Ingest(serve.Sample{Site: "s", Tier: tr2, Time: tr.SecTimes[i], Values: vecs[tr2][i]})
			}
		}
		before, _ := p.SiteStats("s")

		values := make([]float64, 0, len(raw)/8)
		for i := 0; i+8 <= len(raw); i += 8 {
			values = append(values, math.Float64frombits(binary.LittleEndian.Uint64(raw[i:])))
		}
		p.Ingest(serve.Sample{Site: "s", Tier: server.TierID(tier), Time: ts, Values: values})

		after, _ := p.SiteStats("s")
		if after.SamplesIngested != before.SamplesIngested+1 {
			t.Fatalf("ingested moved %d -> %d, want +1", before.SamplesIngested, after.SamplesIngested)
		}
		skips := func(s serve.SiteStats) uint64 {
			return s.SamplesLate + s.SamplesBadValue + s.SamplesBadShape
		}
		dSkip := skips(after) - skips(before)
		if dSkip > 1 {
			t.Fatalf("one sample counted under %d skip reasons", dSkip)
		}
		malformed := tier < 0 || tier >= int(server.NumTiers) || len(values) != dim ||
			math.IsNaN(ts) || math.IsInf(ts, 0)
		for _, v := range values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				malformed = true
			}
		}
		if malformed && dSkip != 1 {
			t.Fatalf("malformed sample (tier=%d t=%v dim=%d) skipped %d times, want exactly 1",
				tier, ts, len(values), dSkip)
		}
		// Whatever happened, the stream must still be decidable: the
		// remaining windows replay without panics or counter corruption.
		for i := 2 * window; i < 4*window && i < len(tr.SecTimes); i++ {
			for tr2 := server.TierID(0); tr2 < server.NumTiers; tr2++ {
				p.Ingest(serve.Sample{Site: "s", Tier: tr2, Time: tr.SecTimes[i], Values: vecs[tr2][i]})
			}
		}
		p.Flush()
		final, _ := p.SiteStats("s")
		if final.SamplesIngested < skips(final)+final.SamplesGapReset {
			t.Fatalf("skip counters (%d+%d) exceed ingested %d",
				skips(final), final.SamplesGapReset, final.SamplesIngested)
		}
	})
}

// bytes8 little-endian-encodes one float64 for fuzz seeds.
func bytes8(v float64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, math.Float64bits(v))
	return b
}

// TestSkipReasonExclusive pins the skipped-sample accounting: a sample
// failing several checks at once is counted under exactly one reason,
// with precedence misshapen > nan > late.
func TestSkipReasonExclusive(t *testing.T) {
	lab, mon, tr := fixture(t)
	vecs := secondVectors(tr)
	window := lab.Scale.Window
	good := func() []float64 { return append([]float64(nil), vecs[0][0]...) }
	nanVec := func() []float64 {
		v := good()
		v[0] = math.NaN()
		return v
	}
	lateTime := tr.SecTimes[0] // already ingested by the prefix below

	cases := []struct {
		name   string
		sample serve.Sample
		reason string // "misshapen", "nan", "late"
	}{
		{"bad tier", serve.Sample{Tier: server.TierID(9), Time: 1e6, Values: good()}, "misshapen"},
		{"short vector", serve.Sample{Tier: server.TierApp, Time: 1e6, Values: good()[:1]}, "misshapen"},
		{"nil vector", serve.Sample{Tier: server.TierApp, Time: 1e6}, "misshapen"},
		{"nan value", serve.Sample{Tier: server.TierApp, Time: 1e6, Values: nanVec()}, "nan"},
		{"inf time", serve.Sample{Tier: server.TierApp, Time: math.Inf(1), Values: good()}, "nan"},
		{"nan time", serve.Sample{Tier: server.TierApp, Time: math.NaN(), Values: good()}, "nan"},
		{"late", serve.Sample{Tier: server.TierApp, Time: lateTime, Values: good()}, "late"},
		{"bad tier + nan value + late", serve.Sample{Tier: server.TierID(-1), Time: lateTime, Values: nanVec()}, "misshapen"},
		{"wrong dim + late", serve.Sample{Tier: server.TierDB, Time: lateTime, Values: good()[:2]}, "misshapen"},
		{"nan value + late", serve.Sample{Tier: server.TierDB, Time: lateTime, Values: nanVec()}, "nan"},
		{"nan time + late-ish", serve.Sample{Tier: server.TierDB, Time: math.NaN(), Values: nanVec()}, "nan"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := serve.NewPipeline(mon, serve.Config{Window: window})
			if err != nil {
				t.Fatal(err)
			}
			// Clean prefix: one full window plus one sample, so lateTime
			// is genuinely behind the stream.
			for i := 0; i <= window; i++ {
				for tier := server.TierID(0); tier < server.NumTiers; tier++ {
					p.Ingest(serve.Sample{Site: "s", Tier: tier, Time: tr.SecTimes[i], Values: vecs[tier][i]})
				}
			}
			before, _ := p.SiteStats("s")
			s := tc.sample
			s.Site = "s"
			p.Ingest(s)
			after, _ := p.SiteStats("s")

			deltas := map[string]uint64{
				"misshapen": after.SamplesBadShape - before.SamplesBadShape,
				"nan":       after.SamplesBadValue - before.SamplesBadValue,
				"late":      after.SamplesLate - before.SamplesLate,
			}
			var total uint64
			for _, d := range deltas {
				total += d
			}
			if total != 1 {
				t.Fatalf("sample counted %d times across reasons %v, want exactly once", total, deltas)
			}
			if deltas[tc.reason] != 1 {
				t.Errorf("counted under the wrong reason: deltas %v, want %s", deltas, tc.reason)
			}
		})
	}
}

// TestHealthLadderProperty drives randomized window-outcome scripts
// through the pipeline and checks the degradation ladder against a model
// state machine: degraded windows move the site to degraded, dropped
// windows and gaps to stale, three consecutive clean decisions back to
// healthy — and every transition the model predicts shows up both
// as an OnHealth event and as exactly one increment of the matching
// HealthTransitions cell (the Prometheus counter's source).
func TestHealthLadderProperty(t *testing.T) {
	_, mon, _ := fixture(t)
	dim := mon.InputDim()
	// budget and recoverN are the pipeline's staleness budget and
	// recovery streak at a 30-second window.
	const (
		window   = 30
		recoverN = 3
		budget   = 5
		nSeeds   = 12
		nWin     = 36
	)
	outcomes := []string{"clean", "degraded", "dropped", "gap"}
	var reached [serve.NumHealthStates]uint64 // transitions into each state, all seeds

	for seedIdx := 0; seedIdx < nSeeds; seedIdx++ {
		seed := int64(seedIdx)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			script := make([]string, nWin)
			for i := range script {
				script[i] = outcomes[rng.Intn(len(outcomes))]
			}
			// The last window must be deliverable: closing it via Flush
			// with samples missing is a degraded/dropped outcome of its
			// own, so pin it clean for a crisp end state.
			script[nWin-1] = "clean"

			var events []serve.HealthEvent
			p, err := serve.NewPipeline(mon, serve.Config{
				Window:   window,
				OnHealth: func(ev serve.HealthEvent) { events = append(events, ev) },
			})
			if err != nil {
				t.Fatal(err)
			}
			vals := make([]float64, dim)
			feedWindow := func(w int, missApp int) {
				base := float64(w * window)
				for i := 1; i <= window; i++ {
					ts := base + float64(i)
					if i > window-missApp {
						// Tail samples of the app tier go missing.
					} else {
						p.Ingest(serve.Sample{Site: "s", Tier: server.TierApp, Time: ts, Values: vals})
					}
					p.Ingest(serve.Sample{Site: "s", Tier: server.TierDB, Time: ts, Values: vals})
				}
			}

			// Model state machine.
			model := serve.HealthHealthy
			streak := 0
			var wantTrans [serve.NumHealthStates][serve.NumHealthStates]uint64
			var wantEdges [][2]serve.Health
			moveTo := func(to serve.Health) {
				if model == to {
					return
				}
				wantTrans[model][to]++
				wantEdges = append(wantEdges, [2]serve.Health{model, to})
				model = to
			}
			for w, outcome := range script {
				switch outcome {
				case "clean":
					feedWindow(w, 0)
					streak++
					if model != serve.HealthHealthy && streak >= recoverN {
						moveTo(serve.HealthHealthy)
					}
				case "degraded":
					miss := 1 + rng.Intn(budget)
					feedWindow(w, miss)
					streak = 0
					moveTo(serve.HealthDegraded)
				case "dropped":
					miss := budget + 1 + rng.Intn(window-budget-1)
					feedWindow(w, miss)
					streak = 0
					moveTo(serve.HealthStale)
				case "gap":
					streak = 0
					moveTo(serve.HealthStale)
				}
			}
			p.Flush()

			st, ok := p.SiteStats("s")
			if !ok {
				t.Fatal("no site stats")
			}
			if st.Health != model {
				t.Errorf("final health %s, model says %s (script %v)", st.Health, model, script)
			}
			if st.HealthTransitions != wantTrans {
				t.Errorf("transition counters %v, model says %v (script %v)",
					st.HealthTransitions, wantTrans, script)
			}
			for from := range wantTrans {
				for to, n := range wantTrans[from] {
					reached[to] += n
				}
			}
			if len(events) != len(wantEdges) {
				t.Fatalf("observed %d OnHealth events, model says %d (script %v)",
					len(events), len(wantEdges), script)
			}
			for i, ev := range events {
				if ev.From != wantEdges[i][0] || ev.To != wantEdges[i][1] {
					t.Errorf("event %d is %s->%s, model says %s->%s",
						i, ev.From, ev.To, wantEdges[i][0], wantEdges[i][1])
				}
				if ev.Site != "s" {
					t.Errorf("event %d on site %q", i, ev.Site)
				}
			}
			// Every event corresponds to exactly one counter increment.
			if got, want := st.HealthChanges(), uint64(len(events)); got != want {
				t.Errorf("counter increments %d != events %d — a transition skipped its counter", got, want)
			}
		})
	}
	for h, n := range reached {
		if n == 0 {
			t.Errorf("no script moved the site to %s", serve.Health(h))
		}
	}
}
