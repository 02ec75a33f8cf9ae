package hpcap_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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

// TestConfigFieldsHaveSetters keeps the serving path's configs to the
// knobs some program turns: every exported field of the five configs
// below must be set by a non-test .go file under cmd/, internal/ or
// bench/, as a `Field:` key or a `.Field =` assignment (see setFields).
// The declaring package's own defaults do not count. A field that only
// tests set is a constant with a config's cost; make it one. The
// exceptions are listed with their reasons.
func TestConfigFieldsHaveSetters(t *testing.T) {
	configs := []struct{ dir, typ string }{
		{"internal/serve", "Config"},
		{"internal/serve", "ShardConfig"},
		{"internal/serve", "ListenConfig"},
		{"internal/wire", "AgentConfig"},
		{"internal/wal", "Config"},
	}
	const deployment = "a deployment setting the bounded-tail and overload work will set"
	unset := map[string]string{
		"serve.ListenConfig.ReadTimeout": deployment,
		"wire.AgentConfig.BackoffBase":   deployment,
		"wire.AgentConfig.BackoffMax":    deployment,
		"wire.AgentConfig.DialTimeout":   deployment,
		"wire.AgentConfig.WriteTimeout":  deployment,
	}

	set := map[string]bool{}
	fset := token.NewFileSet()
	for _, root := range []string{"cmd", "internal", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err == nil {
				setFields(f, set)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	fields := 0
	for _, c := range configs {
		st := structType(t, fset, c.dir, c.typ)
		for _, field := range st.Fields.List {
			for _, name := range field.Names {
				if !name.IsExported() {
					continue
				}
				fields++
				key := filepath.Base(c.dir) + "." + c.typ + "." + name.Name
				reason, excepted := unset[key]
				delete(unset, key)
				switch {
				case !set[key] && !excepted:
					t.Errorf("%s: no program sets it", key)
				case set[key] && excepted:
					t.Errorf("%s is set now; drop its exception (%s)", key, reason)
				}
			}
		}
	}
	for key := range unset {
		t.Errorf("exception %s names no field of the configs", key)
	}
	t.Logf("%d exported fields across %d configs", fields, len(configs))
}

// setFields adds to set each "pkg.Type.Field" that f sets: as a key of a
// pkg.Type literal, or by assigning x.Field where f gave x the type
// pkg.Type (by a literal, a pkg.DefaultType() call, a var declaration, a
// parameter or a struct field). Names are matched, not types checked.
func setFields(f *ast.File, set map[string]bool) {
	bound := map[string]string{} // identifier -> "pkg.Type"
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if typ := qualifiedType(n); typ != "" {
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							set[typ+"."+key.Name] = true
						}
					}
				}
			}
		case *ast.Field:
			for _, name := range n.Names {
				bound[name.Name] = qualifiedType(n.Type)
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				typ := qualifiedType(n.Type)
				if typ == "" && i < len(n.Values) {
					typ = qualifiedType(n.Values[i])
				}
				bound[name.Name] = typ
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				switch lhs := lhs.(type) {
				case *ast.Ident:
					if len(n.Rhs) == len(n.Lhs) {
						bound[lhs.Name] = qualifiedType(n.Rhs[i])
					}
				case *ast.SelectorExpr:
					var x string
					switch recv := lhs.X.(type) {
					case *ast.Ident:
						x = recv.Name
					case *ast.SelectorExpr:
						x = recv.Sel.Name
					}
					if typ := bound[x]; typ != "" {
						set[typ+"."+lhs.Sel.Name] = true
					}
				}
			}
		}
		return true
	})
}

// qualifiedType names the package-qualified type an expression denotes or
// builds: "pkg.Type" for pkg.Type, *pkg.Type, pkg.Type{...}, &pkg.Type{...}
// and pkg.DefaultType(); "" otherwise.
func qualifiedType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return qualifiedType(e.X)
	case *ast.UnaryExpr:
		return qualifiedType(e.X)
	case *ast.CompositeLit:
		return qualifiedType(e.Type)
	case *ast.CallExpr:
		if pkg, fn, ok := strings.Cut(qualifiedType(e.Fun), ".Default"); ok {
			return pkg + "." + fn
		}
	case *ast.SelectorExpr:
		if pkg, ok := e.X.(*ast.Ident); ok {
			return pkg.Name + "." + e.Sel.Name
		}
	}
	return ""
}

// structType finds the struct type named typ among dir's non-test files.
func structType(t *testing.T, fset *token.FileSet, dir, typ string) *ast.StructType {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if obj := f.Scope.Lookup(typ); obj != nil && obj.Kind == ast.Typ {
			if st, ok := obj.Decl.(*ast.TypeSpec).Type.(*ast.StructType); ok {
				return st
			}
		}
	}
	t.Fatalf("no struct %s in %s", typ, dir)
	return nil
}
