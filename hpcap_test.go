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
	"slices"
	"sort"
	"strings"
	"sync"
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

// The surface census keeps the module's surface to what its programs
// use, in three checks:
//
//   - TestFacadeNamesHaveCallers: every name hpcap.go exports is used as
//     hpcap.<Name> by an example program or the root benchmarks;
//   - TestInternalNamesHaveCallers: every exported func, method, type,
//     var and const declared under internal/ is referenced by a non-test
//     file, in bench/, cmd/ and examples/ too;
//   - TestConfigFieldsHaveSetters: every exported field of the serving,
//     training and lifecycle configs is set by a non-test file outside
//     the declaring package.
//
// The last two read one parse of every non-test .go file of the module
// and of bench/ (moduleFiles).
//
// A name or a field that only tests use costs upkeep and serves no
// program: delete it, move it into the package's export_test.go, or make
// the field a constant. A test-support package (a directory named *test,
// after net/http/httptest) is test code here, as scripts/loc.sh counts
// it. Names are matched, not types checked. The exceptions are listed
// with their reasons.

// srcFile is one parsed non-test .go file.
type srcFile struct {
	dir     string            // slash path of its directory from the module root
	imports map[string]string // local package name -> import path
	ast     *ast.File
}

var moduleFiles = sync.OnceValues(func() ([]srcFile, error) {
	var files []srcFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || strings.HasSuffix(name, "test")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, srcFile{dir: filepath.ToSlash(filepath.Dir(path)), imports: imports(f), ast: f})
		return nil
	})
	return files, err
})

// census returns the module's parsed non-test files.
func census(t *testing.T) []srcFile {
	t.Helper()
	files, err := moduleFiles()
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// imports maps each package name f imports under to its import path.
func imports(f *ast.File) map[string]string {
	out := map[string]string{}
	for _, imp := range f.Imports {
		ipath := strings.Trim(imp.Path.Value, `"`)
		name := ipath[strings.LastIndex(ipath, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		out[name] = ipath
	}
	return out
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

// implicitMethods are methods a program uses without selecting them: the
// standard library calls them through its own interfaces (fmt.Stringer,
// error, http.Handler, sort and heap), and go vet's copylocks check reads
// Lock and Unlock off a noCopy marker.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "ServeHTTP": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Lock": true, "Unlock": true,
}

// TestInternalNamesHaveCallers fails on an exported func, method, type,
// var or const under internal/ that no non-test file references.
func TestInternalNamesHaveCallers(t *testing.T) {
	allowed := map[string]string{
		"experiment.Table.Cell": "the seed-robust claims will read cells by row and column name (ROADMAP: \"Ten seeds are 21 seconds\")",
	}

	// What non-test code references: qualified names (import path + "." +
	// name; a package's own identifiers count under its own path), the
	// directories selecting each name off a value, the module packages
	// each directory imports, and the method names interfaces declare.
	refs := map[string]bool{}
	selectedIn := map[string]map[string]bool{}
	dirImports := map[string]map[string]bool{}
	ifaceMethods := map[string]bool{}
	for _, f := range census(t) {
		if dirImports[f.dir] == nil {
			dirImports[f.dir] = map[string]bool{}
		}
		for _, ipath := range f.imports {
			if dir, ok := moduleDir(ipath); ok {
				dirImports[f.dir][dir] = true
			}
		}
		self := importPath(f.dir)
		declared := map[*ast.Ident]bool{}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declared[n.Name] = true
			case *ast.TypeSpec:
				declared[n.Name] = true
			case *ast.ValueSpec:
				for _, name := range n.Names {
					declared[name] = true
				}
			case *ast.Field:
				for _, name := range n.Names {
					declared[name] = true
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						ifaceMethods[name.Name] = true
					}
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if ipath, ok := f.imports[x.Name]; ok {
						refs[ipath+"."+n.Sel.Name] = true
						return false
					}
				}
				if selectedIn[n.Sel.Name] == nil {
					selectedIn[n.Sel.Name] = map[string]bool{}
				}
				selectedIn[n.Sel.Name][f.dir] = true
				declared[n.Sel] = true
			case *ast.Ident:
				if !declared[n] {
					refs[self+"."+n.Name] = true
				}
			}
			return true
		})
	}

	// reaches reports whether in imports dir, directly or through other
	// module packages: the facade's aliases and the types a package's API
	// hands out carry methods across packages.
	reach := map[string]map[string]bool{}
	var reachable func(in string) map[string]bool
	reachable = func(in string) map[string]bool {
		if r, ok := reach[in]; ok {
			return r
		}
		r := map[string]bool{}
		reach[in] = r
		for dir := range dirImports[in] {
			r[dir] = true
			for d := range reachable(dir) {
				r[d] = true
			}
		}
		return r
	}
	// A method counts as used where its name is selected in its own
	// package or in one that reaches it, or anywhere if an interface
	// declares the name.
	methodUsed := func(dir, name string) bool {
		if implicitMethods[name] {
			return true
		}
		for in := range selectedIn[name] {
			if ifaceMethods[name] || in == dir || reachable(in)[dir] {
				return true
			}
		}
		return false
	}

	checked := 0
	report := func(name, kind string, used bool) {
		checked++
		reason, excepted := allowed[name]
		delete(allowed, name)
		switch {
		case !used && !excepted:
			t.Errorf("%s (%s) has no caller outside tests", name, kind)
		case used && excepted:
			t.Errorf("%s has a caller now; drop its exception (%s)", name, reason)
		}
	}
	for _, f := range census(t) {
		if !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		pkg, self := f.ast.Name.Name, importPath(f.dir)
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				switch {
				case !d.Name.IsExported():
				case d.Recv == nil:
					report(pkg+"."+d.Name.Name, "func", refs[self+"."+d.Name.Name])
				default:
					report(pkg+"."+recvType(d.Recv)+"."+d.Name.Name, "method", methodUsed(f.dir, d.Name.Name))
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					names := []*ast.Ident{}
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names = append(names, s.Name)
					case *ast.ValueSpec:
						names = s.Names
					}
					for _, name := range names {
						if name.IsExported() {
							report(pkg+"."+name.Name, d.Tok.String(), refs[self+"."+name.Name])
						}
					}
				}
			}
		}
	}
	for name := range allowed {
		t.Errorf("exception %s names no exported declaration", name)
	}
	t.Logf("%d exported names under internal/", checked)
}

// importPath is the import path of the package in module directory dir.
func importPath(dir string) string {
	if dir == "." {
		return "hpcap"
	}
	return "hpcap/" + dir
}

// moduleDir is the module directory of import path ipath, if the module
// holds it.
func moduleDir(ipath string) (string, bool) {
	if ipath == "hpcap" {
		return ".", true
	}
	return strings.CutPrefix(ipath, "hpcap/")
}

// recvType names a method's receiver type: T for T, *T, T[K] and *T[K].
func recvType(recv *ast.FieldList) string {
	e := recv.List[0].Type
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	return e.(*ast.Ident).Name
}

// TestConfigFieldsHaveSetters keeps the serving, training and lifecycle
// configs to the knobs some program turns: every exported field of the
// configs below must be set by a non-test .go file under cmd/, internal/
// or bench/, as a `Field:` key or a `.Field =` assignment (see setFields).
// The declaring package's own defaults do not count. A field that only
// tests set is a constant with a config's cost; make it one.
func TestConfigFieldsHaveSetters(t *testing.T) {
	configs := []struct{ dir, typ string }{
		{"internal/serve", "Config"},
		{"internal/serve", "ShardConfig"},
		{"internal/serve", "ListenConfig"},
		{"internal/wire", "AgentConfig"},
		{"internal/wal", "Config"},
		{"internal/core", "Config"},
		{"internal/predictor", "Config"},
		{"internal/registry", "Config"},
		{"internal/registry", "AutoscalerConfig"},
		{"internal/drift", "Config"},
		{"internal/fuse", "Config"},
	}
	const deployment = "a deployment setting the bounded-tail and overload work will set"
	const benchFuse = "bench/ builds serve.Config.Fuse from fuse.DefaultConfig(); a constant once the benchmark changes (ROADMAP: \"Clear bench/'s queue\")"
	unset := map[string]string{
		"serve.ListenConfig.ReadTimeout": deployment,
		"wire.AgentConfig.BackoffBase":   deployment,
		"wire.AgentConfig.BackoffMax":    deployment,
		"wire.AgentConfig.DialTimeout":   deployment,
		"wire.AgentConfig.WriteTimeout":  deployment,
		"fuse.Config.ProcessNoise":       benchFuse,
		"fuse.Config.MeasurementNoise":   benchFuse,
		"fuse.Config.GateSigmas":         benchFuse,
		"fuse.Config.StuckRun":           benchFuse,
		"fuse.Config.Warmup":             benchFuse,
		"fuse.Config.ConfidenceFloor":    benchFuse,
	}

	files := census(t)
	set := map[string]bool{}
	for _, f := range files {
		setFields(f.ast, set)
	}
	fields := 0
	for _, c := range configs {
		for _, field := range structType(t, files, c.dir, c.typ).Fields.List {
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
// parameter, a struct field, or a copy of a variable or field so bound).
// Only types qualified by one of f's imports count, so a package's own
// defaults never set its fields.
func setFields(f *ast.File, set map[string]bool) {
	pkgs := imports(f)
	bound := map[string]string{} // identifier or field name -> "pkg.Type"
	typeOf := func(e ast.Expr) string {
		if typ := qualifiedType(e, pkgs); typ != "" {
			return typ
		}
		switch e := e.(type) {
		case *ast.Ident:
			return bound[e.Name]
		case *ast.SelectorExpr:
			return bound[e.Sel.Name]
		}
		return ""
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if typ := qualifiedType(n, pkgs); typ != "" {
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
				bound[name.Name] = qualifiedType(n.Type, pkgs)
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				typ := qualifiedType(n.Type, pkgs)
				if typ == "" && i < len(n.Values) {
					typ = typeOf(n.Values[i])
				}
				bound[name.Name] = typ
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				switch lhs := lhs.(type) {
				case *ast.Ident:
					if len(n.Rhs) == len(n.Lhs) {
						bound[lhs.Name] = typeOf(n.Rhs[i])
					}
				case *ast.SelectorExpr:
					if typ := typeOf(lhs.X); typ != "" {
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
// and pkg.DefaultType(), where pkg is a name in pkgs; "" otherwise.
func qualifiedType(e ast.Expr, pkgs map[string]string) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return qualifiedType(e.X, pkgs)
	case *ast.UnaryExpr:
		return qualifiedType(e.X, pkgs)
	case *ast.CompositeLit:
		return qualifiedType(e.Type, pkgs)
	case *ast.CallExpr:
		if pkg, fn, ok := strings.Cut(qualifiedType(e.Fun, pkgs), ".Default"); ok {
			return pkg + "." + fn
		}
	case *ast.SelectorExpr:
		if pkg, ok := e.X.(*ast.Ident); ok && pkgs[pkg.Name] != "" {
			return pkg.Name + "." + e.Sel.Name
		}
	}
	return ""
}

// structType finds the struct type named typ among dir's parsed files.
func structType(t *testing.T, files []srcFile, dir, typ string) *ast.StructType {
	t.Helper()
	for _, f := range files {
		if f.dir != dir {
			continue
		}
		for _, d := range f.ast.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					if st, ok := ts.Type.(*ast.StructType); ok && ts.Name.Name == typ {
						return st
					}
				}
			}
		}
	}
	t.Fatalf("no struct %s in %s", typ, dir)
	return nil
}

// TestSetFields pins the config-field matcher on the ways a program sets
// a field.
func TestSetFields(t *testing.T) {
	tests := []struct {
		name, src string
		want      []string
	}{
		{"literal key", `
import "hpcap/internal/serve"
var _ = serve.Config{Window: 3}`,
			[]string{"serve.Config.Window"}},
		{"default then assign", `
import "hpcap/internal/wire"
func f() { c := wire.DefaultAgentConfig(); c.QueueLen = 4 }`,
			[]string{"wire.AgentConfig.QueueLen"}},
		{"typed parameter", `
import "hpcap/internal/wal"
func f(c *wal.Config) { c.SyncEvery = 1 }`,
			[]string{"wal.Config.SyncEvery"}},
		{"copy of a typed field", `
import "hpcap/internal/registry"
type scenario struct{ lc registry.Config }
func (ps scenario) f() { lc := ps.lc; lc.HistoryWindows = 64 }`,
			[]string{"registry.Config.HistoryWindows"}},
		{"own package's literal", `
type Config struct{ Window int }
var _ = Config{Window: 3}`,
			nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f, err := parser.ParseFile(token.NewFileSet(), "x.go", "package x\n"+tt.src, 0)
			if err != nil {
				t.Fatal(err)
			}
			set := map[string]bool{}
			setFields(f, set)
			var got []string
			for key := range set {
				got = append(got, key)
			}
			sort.Strings(got)
			if !slices.Equal(got, tt.want) {
				t.Errorf("setFields = %q, want %q", got, tt.want)
			}
		})
	}
}
