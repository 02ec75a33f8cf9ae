package registry_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"hpcap/internal/core"
	"hpcap/internal/drift"
	"hpcap/internal/experiment"
	"hpcap/internal/metrics"
	"hpcap/internal/ml/bayes"
	"hpcap/internal/pi"
	"hpcap/internal/predictor"
	"hpcap/internal/registry"
	"hpcap/internal/serve"
	"hpcap/internal/server"
	"hpcap/internal/tpcw"
)

const fixtureLevel = metrics.LevelHPC

// fx caches the expensive fixture: a quick-scale lab, its trained HPC
// monitor, and the interleaved test trace with per-second recordings.
var fx struct {
	once  sync.Once
	err   error
	lab   *experiment.Lab
	mon   *core.Monitor
	tr    *experiment.Trace
	names []string
}

func fixture(t testing.TB) (*experiment.Lab, *core.Monitor, *experiment.Trace, []string) {
	t.Helper()
	fx.once.Do(func() {
		lab := experiment.NewLab(experiment.QuickScale())
		mon, err := lab.TrainMonitor(fixtureLevel, predictor.Config{})
		if err != nil {
			fx.err = err
			return
		}
		wb, err := lab.Workload(tpcw.Browsing())
		if err != nil {
			fx.err = err
			return
		}
		wo, err := lab.Workload(tpcw.Ordering())
		if err != nil {
			fx.err = err
			return
		}
		tr, err := experiment.Generate(experiment.TraceConfig{
			Server:        lab.Server,
			Schedule:      experiment.InterleavedSchedule(wb, wo, lab.Scale),
			Window:        lab.Scale.Window,
			Warmup:        lab.Scale.WarmupWindows,
			Seed:          lab.Seed + 104,
			RecordSeconds: true,
		})
		if err != nil {
			fx.err = err
			return
		}
		fx.lab, fx.mon, fx.tr, fx.names = lab, mon, tr, experiment.MetricNames(fixtureLevel)
	})
	if fx.err != nil {
		t.Fatalf("fixture: %v", fx.err)
	}
	return fx.lab, fx.mon, fx.tr, fx.names
}

// active returns the site's most recently swapped-in version.
func active(s *registry.Store, site string) (registry.Version, bool) {
	vs := s.History(site)
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].Swapped {
			return vs[i], true
		}
	}
	return registry.Version{}, false
}

func TestStoreVersioning(t *testing.T) {
	s := registry.NewStore()
	if _, ok := active(s, "shop"); ok {
		t.Fatal("empty store has an active version")
	}
	v0 := s.Register("shop", registry.Version{Reason: "initial", Swapped: true})
	if v0.ID != 0 {
		t.Fatalf("first version ID = %d, want 0", v0.ID)
	}
	v1 := s.Register("shop", registry.Version{Reason: "accuracy", SwapSeq: -1})
	if v1.ID != 1 {
		t.Fatalf("second version ID = %d, want 1", v1.ID)
	}
	if a, ok := active(s, "shop"); !ok || a.ID != 0 {
		t.Fatalf("active = %+v, want version 0", a)
	}
	s.RecordSwap("shop", 1, 42)
	if a, ok := active(s, "shop"); !ok || a.ID != 1 || a.SwapSeq != 42 {
		t.Fatalf("after swap active = %+v, want version 1 at seq 42", a)
	}
	if h := s.History("shop"); len(h) != 2 || h[0].ID != 0 || h[1].ID != 1 {
		t.Fatalf("history = %+v", h)
	}
	if s.Sites() != 1 {
		t.Fatalf("Sites = %d, want 1", s.Sites())
	}
}

func TestManagerValidation(t *testing.T) {
	lab, mon, _, names := fixture(t)
	pipe, err := serve.NewPipeline(mon, serve.Config{Window: lab.Scale.Window})
	if err != nil {
		t.Fatal(err)
	}
	learner := bayes.TANLearner()
	cases := []struct {
		name string
		cfg  registry.Config
		want error
	}{
		{"nil pipeline", registry.Config{Initial: mon, Names: names, Train: core.Config{Learner: learner}}, core.ErrBadConfig},
		{"nil initial", registry.Config{Pipeline: pipe, Names: names, Train: core.Config{Learner: learner}}, core.ErrUntrained},
		{"untrained initial", registry.Config{Pipeline: pipe, Initial: &core.Monitor{}, Names: names, Train: core.Config{Learner: learner}}, core.ErrUntrained},
		{"bad names", registry.Config{Pipeline: pipe, Initial: mon, Names: []string{"x"}, Train: core.Config{Learner: learner}}, core.ErrDimensionMismatch},
		{"no learner", registry.Config{Pipeline: pipe, Initial: mon, Names: names}, core.ErrBadConfig},
	}
	for _, tc := range cases {
		if _, err := registry.NewManager(tc.cfg); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, err := registry.NewManager(registry.Config{
		Pipeline: pipe, Initial: mon, Names: names, Train: core.Config{Learner: learner},
	}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// runLifecycle streams the fixture trace through a managed pipeline,
// feeding each window's ground truth with a one-window delay. From window
// lieFrom on the truth labels alternate 1/0 regardless of the trace,
// manufacturing a ~50% error rate (accuracy drift) while guaranteeing
// every retraining snapshot holds both classes.
func runLifecycle(t *testing.T, cfg registry.Config, lieFrom int) (*registry.Manager, []registry.Event, *serve.Pipeline) {
	t.Helper()
	lab, mon, tr, names := fixture(t)

	var mu sync.Mutex
	var events []registry.Event
	var decisions []serve.Decision
	pipe, err := serve.NewPipeline(mon, serve.Config{
		Window: lab.Scale.Window,
		OnDecision: func(d serve.Decision) {
			mu.Lock()
			decisions = append(decisions, d)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Pipeline = pipe
	cfg.Initial = mon
	cfg.Names = names
	cfg.Train = core.Config{Learner: bayes.TANLearner(), Seed: lab.Seed}
	cfg.OnEvent = func(e registry.Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}
	mgr, err := registry.NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}

	truth := func(i int) pi.Truth {
		w := tr.Windows[i].Truth
		if i >= lieFrom {
			w.Overload = 1 - i%2
		}
		return w
	}
	var vecs [server.NumTiers][][]float64
	for tier := server.TierID(0); tier < server.NumTiers; tier++ {
		vecs[tier] = tr.SecondVectors(fixtureLevel, tier)
	}
	fedTruth := 0
	for i, ts := range tr.SecTimes {
		for tier := server.TierID(0); tier < server.NumTiers; tier++ {
			pipe.Ingest(serve.Sample{Site: "s", Tier: tier, Time: ts, Values: vecs[tier][i]})
		}
		// Deliver truth one window behind the decision stream.
		mu.Lock()
		ready := len(decisions) - 1
		mu.Unlock()
		for ; fedTruth < ready; fedTruth++ {
			mgr.Observe(decisions[fedTruth], truth(fedTruth))
		}
	}
	pipe.Flush()
	mu.Lock()
	for ; fedTruth < len(decisions); fedTruth++ {
		mu.Unlock()
		mgr.Observe(decisions[fedTruth], truth(fedTruth))
		mu.Lock()
	}
	mu.Unlock()
	mgr.Wait()
	mu.Lock()
	defer mu.Unlock()
	return mgr, append([]registry.Event(nil), events...), pipe
}

// lifecycleConfig arms only the accuracy detector, tightly enough that
// inverted labels trip it within the quick-scale trace.
func lifecycleConfig() registry.Config {
	return registry.Config{
		Drift: drift.Config{
			PHLambda:     3,
			MinWindows:   4,
			MixThreshold: -1,
		},
		MinTrainWindows: 8,
		ShadowWindows:   4,
		CooldownWindows: 6,
	}
}

func TestManagerLifecycleSync(t *testing.T) {
	mgr, events, pipe := runLifecycle(t, lifecycleConfig(), 10)

	var drifts, retrains, trained int
	for _, e := range events {
		switch e.Kind {
		case registry.EventDrift:
			drifts++
			if len(e.Signals) == 0 || e.Site != "s" {
				t.Errorf("malformed drift event %+v", e)
			}
		case registry.EventRetrain:
			retrains++
			if e.Err != nil {
				// A snapshot can legitimately be untrainable (e.g. one
				// class only); the event must carry the error instead.
				continue
			}
			trained++
			v := e.Version
			if v.ID < 1 || v.Windows < 8 || v.Reason != "accuracy" {
				t.Errorf("malformed retrain version %+v", v)
			}
			if v.CandidateBA < 0 || v.CandidateBA > 1 || v.IncumbentBA < 0 || v.IncumbentBA > 1 {
				t.Errorf("shadow scores out of range: %+v", v)
			}
		}
	}
	if drifts == 0 {
		t.Fatal("lying labels never signalled accuracy drift")
	}
	if trained == 0 {
		t.Fatalf("no retrain succeeded (%d attempts)", retrains)
	}

	hist := mgr.Store().History("s")
	if len(hist) != trained+1 {
		t.Errorf("store holds %d versions, want %d (initial + successful retrains)", len(hist), trained+1)
	}
	if hist[0].Reason != "initial" || !hist[0].Swapped {
		t.Errorf("version 0 = %+v, want swapped initial", hist[0])
	}
	cur, ok := active(mgr.Store(), "s")
	if !ok {
		t.Fatal("no active version")
	}
	st, _ := pipe.SiteStats("s")
	if st.DriftSignals == 0 {
		t.Error("drift signals never reached the pipeline counters")
	}
	if cur.ID != st.ModelVersion {
		t.Errorf("store active version %d, pipeline serving %d", cur.ID, st.ModelVersion)
	}
	if st.ModelSwaps != uint64(countSwapped(hist))-1 {
		t.Errorf("pipeline swaps %d, store has %d swapped candidates", st.ModelSwaps, countSwapped(hist)-1)
	}

	// Cooldown: consecutive retrains must be at least CooldownWindows of
	// labeled stream apart.
	var lastSeq int64 = -1 << 62
	for _, e := range events {
		if e.Kind != registry.EventRetrain {
			continue
		}
		if e.Seq-lastSeq < 6 {
			t.Errorf("retrains at seq %d and %d inside the cooldown", lastSeq, e.Seq)
		}
		lastSeq = e.Seq
	}
}

func countSwapped(hist []registry.Version) int {
	n := 0
	for _, v := range hist {
		if v.Swapped {
			n++
		}
	}
	return n
}

func TestManagerLifecycleBackground(t *testing.T) {
	cfg := lifecycleConfig()
	cfg.Background = true
	_, events, _ := runLifecycle(t, cfg, 10)
	var trained int
	for _, e := range events {
		if e.Kind == registry.EventRetrain && e.Err == nil {
			trained++
		}
	}
	if trained == 0 {
		t.Fatal("background mode never completed a retrain")
	}
}

// TestManagerRegistersOnFirstObserve pins first contact: a site's first
// labeled window registers the initial model as v0 and emits no event.
func TestManagerRegistersOnFirstObserve(t *testing.T) {
	lab, mon, _, names := fixture(t)
	pipe, err := serve.NewPipeline(mon, serve.Config{Window: lab.Scale.Window})
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	mgr, err := registry.NewManager(registry.Config{
		Pipeline: pipe, Initial: mon, Names: names,
		Train:   core.Config{Learner: bayes.TANLearner()},
		OnEvent: func(registry.Event) { fired = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr.Observe(serve.Decision{Site: "ghost", Seq: 7}, pi.Truth{Overload: 1})
	if fired {
		t.Error("first labeled window produced an event")
	}
	if got := mgr.Store().History("ghost"); len(got) != 1 {
		t.Errorf("ghost site has %d versions, want 1 (initial registered on first contact)", len(got))
	}
}

// TestManagerGuardsDegradedDecisions pins the lifecycle guard: decisions
// made from partial windows never reach the drift detectors, whatever
// truth they are paired with.
func TestManagerGuardsDegradedDecisions(t *testing.T) {
	lab, mon, _, names := fixture(t)
	run := func(degraded bool) (*registry.Manager, int) {
		pipe, err := serve.NewPipeline(mon, serve.Config{Window: lab.Scale.Window})
		if err != nil {
			t.Fatal(err)
		}
		drifts := 0
		mgr, err := registry.NewManager(registry.Config{
			Pipeline: pipe, Initial: mon, Names: names,
			Train: core.Config{Learner: bayes.TANLearner()},
			Drift: drift.Config{PHLambda: 3, MinWindows: 4, MixThreshold: -1},
			OnEvent: func(e registry.Event) {
				if e.Kind == registry.EventDrift {
					drifts++
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Windows scripting an accuracy collapse: eight correct
		// predictions, then twelve wrong ones. Clean, they trip the
		// Page–Hinkley test on the shift; degraded, none of them may
		// advance any detector state.
		for seq := int64(1); seq <= 20; seq++ {
			d := serve.Decision{Site: "s", Seq: seq}
			if degraded {
				d.Degraded, d.Missing = true, 1
			}
			truth := pi.Truth{}
			if seq > 8 {
				truth.Overload = 1
			}
			mgr.Observe(d, truth)
		}
		return mgr, drifts
	}

	mgr, drifts := run(true)
	if got := mgr.Guarded(); got != 20 {
		t.Errorf("Guarded() = %d, want 20", got)
	}
	if drifts != 0 {
		t.Errorf("guarded decisions still produced %d drift events", drifts)
	}
	if got := mgr.Store().History("s"); len(got) != 1 {
		t.Errorf("fully guarded site has %d versions, want 1 (initial registered on first contact)", len(got))
	}

	mgr, drifts = run(false)
	if got := mgr.Guarded(); got != 0 {
		t.Errorf("clean windows: Guarded() = %d, want 0", got)
	}
	if drifts == 0 {
		t.Error("clean windows never signalled drift: the script exercises nothing")
	}
}

// TestEventString pins the golden-facing renderings.
func TestEventString(t *testing.T) {
	e := registry.Event{
		Kind: registry.EventDrift, Site: "s", Seq: 9,
		Signals: []drift.Signal{{Kind: drift.KindAccuracy, Seq: 9, Score: 5.5, Threshold: 3}},
	}
	if got, want := e.String(), "drift site=s seq=9 accuracy score=5.5000 threshold=3.0000"; got != want {
		t.Errorf("drift event = %q, want %q", got, want)
	}
	e = registry.Event{
		Kind: registry.EventRetrain, Site: "s", Seq: 12,
		Version: registry.Version{ID: 2, Windows: 40, CandidateBA: 0.9, IncumbentBA: 0.5, Swapped: true},
	}
	if got, want := e.String(), "retrain site=s seq=12 version=2 windows=40 shadow cand=0.9000 inc=0.5000 swapped=true"; got != want {
		t.Errorf("retrain event = %q, want %q", got, want)
	}
	e = registry.Event{Kind: registry.EventRetrain, Site: "s", Seq: 3, Err: errors.New("boom")}
	if got, want := e.String(), "retrain site=s seq=3 err=boom"; got != want {
		t.Errorf("failed retrain event = %q, want %q", got, want)
	}
	_ = fmt.Sprintf("%s", e) // Stringer wired
}
