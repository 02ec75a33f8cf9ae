package hpcap_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hpcap"
	"hpcap/internal/core"
	"hpcap/internal/ml/bayes"
)

// TestFacadeWorkloadHelpers exercises the re-exported TPC-W surface.
func TestFacadeWorkloadHelpers(t *testing.T) {
	for _, mix := range []hpcap.Mix{hpcap.Browsing(), hpcap.Shopping(), hpcap.Ordering()} {
		if err := mix.Validate(); err != nil {
			t.Errorf("%s: %v", mix.Name, err)
		}
	}
	var sched hpcap.Schedule = hpcap.Concat(
		hpcap.Steady(hpcap.Shopping(), 50, 100),
		hpcap.Steady(hpcap.Ordering(), 80, 300),
	)
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	var first hpcap.Phase = sched.Phases[0]
	if first.Mix.Name != hpcap.Shopping().Name {
		t.Errorf("first phase mix = %s, want shopping", first.Mix.Name)
	}
}

// TestFacadeTestbedRun drives the simulated site through the facade and
// checks the first-class telemetry.
func TestFacadeTestbedRun(t *testing.T) {
	cfg := hpcap.DefaultServerConfig()
	tb, err := hpcap.NewTestbed(cfg, hpcap.Steady(hpcap.Shopping(), 40, 200))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	tb.RunInterval(60)
	snap := tb.RunInterval(30)
	if snap.Completions == 0 {
		t.Error("no completions on a live site")
	}
	if snap.Tiers[hpcap.TierApp].BusySeconds <= 0 {
		t.Error("app tier reports no busy time")
	}

	// Collectors through the facade.
	hpc := hpcap.NewHPCCollector(hpcap.TierApp, cfg.App.Machine, 0.02, 1)
	osc := hpcap.NewOSCollector(hpcap.TierDB, 1024, 0.05, 2)
	if got := len(hpc.Collect(snap, 30)); got != len(hpcap.HPCMetricNames) {
		t.Errorf("HPC vector = %d values, want %d", got, len(hpcap.HPCMetricNames))
	}
	if got := len(osc.Collect(snap, 30)); got != 64 {
		t.Errorf("OS vector = %d values, want the paper's 64", got)
	}
}

// TestFacadeCollectionCosts pins the re-exported window to the paper's;
// the per-sample collection costs are pinned in internal/metrics.
func TestFacadeCollectionCosts(t *testing.T) {
	if hpcap.DefaultWindow != 30 {
		t.Errorf("DefaultWindow = %d, want the paper's 30 s", hpcap.DefaultWindow)
	}
}

// TestFacadeTrainMonitor predicts through sessions over a trained facade
// Monitor.
func TestFacadeTrainMonitor(t *testing.T) {
	var m *hpcap.Monitor = trainTinyMonitor(t)
	var obs hpcap.Observation
	obs.Vectors[0] = []float64{0.95}
	obs.Vectors[1] = []float64{0.2}
	p, err := m.NewSession().Predict(obs)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Overload || p.Bottleneck != hpcap.TierApp {
		t.Errorf("prediction = %+v, want app-tier overload", p)
	}

	// A concurrent caller takes its own independent session over the
	// shared monitor and sees the same inference.
	sp, err := m.NewSession().Predict(obs)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Overload != p.Overload || sp.Bottleneck != p.Bottleneck {
		t.Errorf("second session prediction %+v differs from first %+v", sp, p)
	}
}

// TestFacadeSentinelErrors checks the re-exported typed errors surface
// through the facade and match with errors.Is.
func TestFacadeSentinelErrors(t *testing.T) {
	if _, err := trainTinyMonitor(t).NewSession().Predict(hpcap.Observation{}); !errors.Is(err, hpcap.ErrDimensionMismatch) {
		t.Errorf("empty observation: got %v, want ErrDimensionMismatch", err)
	}
	var m hpcap.Monitor
	if _, err := m.NewSession().Predict(hpcap.Observation{}); !errors.Is(err, hpcap.ErrUntrained) {
		t.Errorf("session over untrained monitor: got %v, want ErrUntrained", err)
	}
	if _, err := hpcap.NewServingPipeline(&m, hpcap.ServingConfig{}); !errors.Is(err, hpcap.ErrUntrained) {
		t.Errorf("pipeline over untrained monitor: got %v, want ErrUntrained", err)
	}
	if _, err := hpcap.NewServingPipeline(nil, hpcap.ServingConfig{}); !errors.Is(err, hpcap.ErrBadConfig) {
		t.Errorf("pipeline over nil monitor: got %v, want ErrBadConfig", err)
	}
}

// TestFacadeServingPipeline streams synthetic samples for one window
// through the re-exported serving surface.
func TestFacadeServingPipeline(t *testing.T) {
	m := trainTinyMonitor(t)
	var decisions []hpcap.Decision
	pipe, err := hpcap.NewServingPipeline(m, hpcap.ServingConfig{
		Window:     10,
		OnDecision: func(d hpcap.Decision) { decisions = append(decisions, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		for tier := hpcap.TierID(0); tier < hpcap.NumTiers; tier++ {
			v := 0.2
			if tier == hpcap.TierApp {
				v = 0.95 // the trained overload signature: hot app tier
			}
			pipe.Ingest(hpcap.StreamSample{
				Site: "s", Tier: tier, Time: float64(i), Values: []float64{v},
			})
		}
	}
	if len(decisions) != 1 {
		t.Fatalf("decided %d windows, want 1", len(decisions))
	}
	if !decisions[0].Prediction.Overload {
		t.Error("saturated stream not flagged overloaded")
	}
	var st hpcap.SiteStats
	var ok bool
	if st, ok = pipe.SiteStats("s"); !ok || st.WindowsDecided != 1 {
		t.Errorf("site stats = %+v ok=%t, want one decided window", st, ok)
	}
}

// trainTinyMonitor builds a one-metric Naive monitor whose hot tier is the
// app tier.
func trainTinyMonitor(t *testing.T) *hpcap.Monitor {
	t.Helper()
	sets := []core.TrainingSet{{Workload: "w"}}
	for i := 0; i < 40; i++ {
		over := 0
		if (i/5)%2 == 1 {
			over = 1
		}
		var vecs [hpcap.NumTiers][]float64
		for tier := 0; tier < hpcap.NumTiers; tier++ {
			v := 0.2
			if over == 1 && tier == 0 {
				v = 0.9
			}
			vecs[tier] = []float64{v + 0.01*float64(i%5)}
		}
		sets[0].Windows = append(sets[0].Windows, core.LabeledWindow{
			Observation: hpcap.Observation{Time: float64(30 * i), Vectors: vecs},
			Overload:    over,
			Bottleneck:  hpcap.TierApp,
		})
	}
	m, err := core.Train(hpcap.LevelHPC, []string{"x"}, sets, core.Config{Learner: bayes.NaiveLearner()})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFacadeNamesHaveCallers keeps the facade to its callers: every name
// hpcap.go exports must be used as hpcap.<Name> by an example program or
// the root benchmarks, except the sentinel errors the package doc
// promises.
func TestFacadeNamesHaveCallers(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "hpcap.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	callers, err := filepath.Glob("examples/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	var src strings.Builder
	for _, path := range append(callers, "bench_test.go") {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		src.Write(b)
	}
	used := regexp.MustCompile(`hpcap\.([A-Z]\w*)`).FindAllStringSubmatch(src.String(), -1)
	called := map[string]bool{"ErrUntrained": true, "ErrDimensionMismatch": true, "ErrBadConfig": true}
	for _, m := range used {
		called[m[1]] = true
	}
	for name, obj := range f.Scope.Objects {
		if ast.IsExported(name) && !called[name] {
			t.Errorf("hpcap.%s (%s) has no caller in examples/ or bench_test.go", name, obj.Kind)
		}
	}
}
