package registry_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"hpcap/internal/chaos"
	"hpcap/internal/core"
	"hpcap/internal/registry"
	"hpcap/internal/serve"
	"hpcap/internal/server"
)

// fakeScaler is a deterministic site-keyed replica ledger with bounds.
type fakeScaler struct {
	mu       sync.Mutex
	replicas map[string]int
	min, max int
}

func newFakeScaler(min, max int) *fakeScaler {
	return &fakeScaler{replicas: make(map[string]int), min: min, max: max}
}

func (f *fakeScaler) count(site, pool string) int {
	if n, ok := f.replicas[site+"/"+pool]; ok {
		return n
	}
	return 2
}

func (f *fakeScaler) AddReplica(site, pool string) (int, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.count(site, pool)
	if n >= f.max {
		return n, false
	}
	n++
	f.replicas[site+"/"+pool] = n
	return n, true
}

func (f *fakeScaler) RemoveReplica(site, pool string) (int, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.count(site, pool)
	if n <= f.min {
		return n, false
	}
	n--
	f.replicas[site+"/"+pool] = n
	return n, true
}

func TestAutoscalerConfigValidate(t *testing.T) {
	cfg := registry.AutoscalerConfig{Scaler: newFakeScaler(1, 4)}
	if errs := cfg.Validate(); len(errs) > 0 {
		t.Fatalf("config with a scaler invalid: %v", errs)
	}
	t.Run("nil scaler", func(t *testing.T) {
		errs := registry.AutoscalerConfig{}.Validate()
		if len(errs) != 1 {
			t.Fatalf("got %d errors (%v), want 1", len(errs), errs)
		}
		if !errors.Is(errs[0], core.ErrBadConfig) {
			t.Errorf("error does not wrap ErrBadConfig: %v", errs[0])
		}
		if _, err := registry.NewAutoscaler(registry.AutoscalerConfig{}); err == nil {
			t.Error("NewAutoscaler accepted it")
		}
	})
}

// scaleLoads builds a two-pool load vector at the given app and db
// offered-load/capacity ratios (capacity 2 each).
func scaleLoads(app, db float64) []server.PoolLoad {
	return []server.PoolLoad{
		{Pool: "app", Slot: server.TierApp, Kind: server.PoolFront, Replicas: 2, Offered: 2 * app, Capacity: 2},
		{Pool: "db", Slot: server.TierDB, Kind: server.PoolStore, Replicas: 2, Offered: 2 * db, Capacity: 2},
	}
}

// TestAutoscalerUpDown walks the autoscaler's thresholds: one overload
// verdict scales up, two cooldown windows follow every action, the
// bottleneck must be at least 0.3 loaded to grow, and four healthy
// verdicts shrink the idlest pool if it is at most 0.15 loaded.
func TestAutoscalerUpDown(t *testing.T) {
	sc := newFakeScaler(1, 4)
	var events []registry.ScaleEvent
	a, err := registry.NewAutoscaler(registry.AutoscalerConfig{
		Scaler:  sc,
		OnScale: func(e registry.ScaleEvent) { events = append(events, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	dec := func(seq int64, overload bool) serve.Decision {
		return serve.Decision{Site: "s", Seq: seq, Prediction: core.Prediction{Overload: overload}}
	}

	// One overload window scales the bottleneck pool up.
	ev := a.Observe(dec(1, true), scaleLoads(1.2, 0.1))
	if ev == nil || !ev.Up || ev.Pool != "app" || ev.Replicas != 3 {
		t.Fatalf("expected app scale-up to 3, got %+v", ev)
	}
	// Cooldown: continued overload in the next window does nothing.
	if ev := a.Observe(dec(2, true), scaleLoads(1.2, 0.1)); ev != nil {
		t.Fatalf("scaled during cooldown: %v", ev)
	}
	if ev := a.Observe(dec(3, true), scaleLoads(1.2, 0.1)); ev == nil || ev.Replicas != 4 {
		t.Fatalf("expected second scale-up to 4 after the cooldown, got %+v", ev)
	}
	// Overload with every pool under the up ratio is not a capacity
	// problem; the autoscaler must refuse.
	for seq := int64(5); seq < 9; seq++ {
		if ev := a.Observe(dec(seq, true), scaleLoads(0.29, 0.1)); ev != nil {
			t.Fatalf("scaled up below the up ratio: %v", ev)
		}
	}
	// Four healthy windows arm a scale-down, but not of a pool loaded
	// above the down ratio.
	for seq := int64(9); seq < 13; seq++ {
		if ev := a.Observe(dec(seq, false), scaleLoads(0.5, 0.16)); ev != nil {
			t.Fatalf("scaled down above the down ratio: %v", ev)
		}
	}
	// Once the idlest pool (db, 0.1) is under it, the armed streak fires.
	down := a.Observe(dec(13, false), scaleLoads(0.2, 0.1))
	if down == nil || down.Up || down.Pool != "db" || down.Replicas != 1 {
		t.Fatalf("expected db scale-down to 1, got %+v", down)
	}
	// An action resets the streak: three healthy windows past the
	// cooldown are not enough, the fourth drains the now idlest app pool.
	for seq := int64(15); seq < 18; seq++ {
		if ev := a.Observe(dec(seq, false), scaleLoads(0.1, 0.5)); ev != nil {
			t.Fatalf("seq %d scaled down on a stale streak: %v", seq, ev)
		}
	}
	if ev := a.Observe(dec(18, false), scaleLoads(0.1, 0.5)); ev == nil || ev.Pool != "app" || ev.Replicas != 3 {
		t.Fatalf("expected app scale-down to 3, got %+v", ev)
	}
	// Degraded and low-confidence windows are ignored outright.
	d := dec(40, true)
	d.Degraded = true
	if ev := a.Observe(d, scaleLoads(1.2, 0.1)); ev != nil {
		t.Fatalf("scaled on a degraded window: %v", ev)
	}
	d = dec(41, true)
	d.LowConfidence = true
	if ev := a.Observe(d, scaleLoads(1.2, 0.1)); ev != nil {
		t.Fatalf("scaled on a low-confidence window: %v", ev)
	}
	ups, downs := a.Actions()
	if ups != 2 || downs != 2 {
		t.Errorf("actions = (%d,%d), want (2,2)", ups, downs)
	}
	if len(events) != 4 {
		t.Errorf("OnScale fired %d times, want 4", len(events))
	}
	want := "scale site=s seq=1 pool=app dir=up replicas=3 ratio=1.200"
	if events[0].String() != want {
		t.Errorf("event string %q, want %q", events[0].String(), want)
	}
}

// TestAutoscaleRaceStress drives eight sites concurrently through a
// chaos-wrapped pipeline — each site hot-swapping its model mid-storm
// while the autoscaler adds and removes replicas on its verdict stream —
// and requires the per-site scale transcripts and final replica ledgers
// to be byte-identical to a sequential replay. The OnScale callback
// re-enters the autoscaler, so a callback fired under a lock deadlocks;
// the watchdog converts that into a crisp failure. Run under -race in CI.
func TestAutoscaleRaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the trace 16 times; skipped in -short")
	}
	lab, mon, tr, _ := fixture(t)
	window := lab.Scale.Window
	var vecs [server.NumTiers][][]float64
	for tier := server.TierID(0); tier < server.NumTiers; tier++ {
		vecs[tier] = tr.SecondVectors(fixtureLevel, tier)
	}
	const nSites = 8
	sched, err := chaos.Parse(
		"nan tier=app at=100 for=40 p=0.3; drop at=180 for=40 p=0.2; " +
			"stuck tier=db at=260 for=30; skew at=320 for=30 p=0.25")
	if err != nil {
		t.Fatal(err)
	}

	run := func(concurrent bool) map[string]string {
		sc := newFakeScaler(1, 5)
		var a *registry.Autoscaler
		var mu sync.Mutex
		transcripts := make(map[string]*strings.Builder)
		acfg := registry.AutoscalerConfig{Scaler: sc}
		acfg.OnScale = func(e registry.ScaleEvent) {
			// Re-enter from inside the callback: counters and another
			// observation for the same site. Deadlocks if OnScale ever
			// fires under an autoscaler lock.
			a.Actions()
			a.Observe(serve.Decision{Site: e.Site, Seq: e.Seq}, scaleLoads(0.2, 0.1))
			mu.Lock()
			transcripts[e.Site].WriteString(e.String() + "\n")
			mu.Unlock()
		}
		a, err := registry.NewAutoscaler(acfg)
		if err != nil {
			t.Fatal(err)
		}
		var p *serve.Pipeline
		p, err = serve.NewPipeline(mon, serve.Config{
			Window: window,
			OnDecision: func(d serve.Decision) {
				// Load ratios follow the verdict deterministically, so the
				// same decision stream always yields the same actions.
				ratio := 0.2
				if d.Prediction.Overload {
					ratio = 1.3
				}
				a.Observe(d, scaleLoads(ratio, 0.1))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nSites; i++ {
			transcripts[fmt.Sprintf("site-%d", i)] = &strings.Builder{}
		}
		in := chaos.NewInjector(sched, 11)
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
		sc.mu.Lock()
		for i := 0; i < nSites; i++ {
			site := fmt.Sprintf("site-%d", i)
			b := transcripts[site]
			fmt.Fprintf(b, "final app=%d db=%d\n", sc.count(site, "app"), sc.count(site, "db"))
			out[site] = b.String()
		}
		sc.mu.Unlock()
		return out
	}

	type result struct{ seq, par map[string]string }
	done := make(chan result, 1)
	go func() {
		var r result
		r.seq = run(false)
		r.par = run(true)
		done <- r
	}()
	var r result
	select {
	case r = <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("autoscale race stress deadlocked (callback under a lock?)")
	}

	anyAction := false
	for site, want := range r.seq {
		if strings.Contains(want, "scale site=") {
			anyAction = true
		}
		if got := r.par[site]; got != want {
			t.Errorf("%s diverged under concurrency\n--- sequential ---\n%s--- concurrent ---\n%s", site, want, got)
		}
	}
	if !anyAction {
		t.Error("no scale actions fired; the stress exercised nothing")
	}
}
