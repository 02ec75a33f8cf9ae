package experiment

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"hpcap/internal/metrics"
	"hpcap/internal/server"
	"hpcap/internal/tpcw"
)

// sharedLab is built once: experiments share traces, as on the paper's
// testbed, and trace generation dominates test runtime.
var (
	labOnce sync.Once
	lab     *Lab
)

func testLab(t *testing.T) *Lab {
	t.Helper()
	labOnce.Do(func() {
		lab = NewLab(QuickScale())
	})
	return lab
}

func TestFindKneeBracketsAndOrdering(t *testing.T) {
	l := testLab(t)
	wb, err := l.Workload(tpcw.Browsing())
	if err != nil {
		t.Fatal(err)
	}
	wo, err := l.Workload(tpcw.Ordering())
	if err != nil {
		t.Fatal(err)
	}
	if wb.Knee < 100 || wb.Knee > 500 {
		t.Errorf("browsing knee = %d, out of plausible range", wb.Knee)
	}
	if wo.Knee <= wb.Knee {
		t.Errorf("ordering knee %d should exceed browsing knee %d (DB saturates first)",
			wo.Knee, wb.Knee)
	}
	// The flash variant pushes far less database work per request, so its
	// knee sits well above the plain browsing knee.
	if wb.FlashKnee < wb.Knee*2 {
		t.Errorf("browsing flash knee %d should be well above the plain knee %d",
			wb.FlashKnee, wb.Knee)
	}
}

func TestFindKneeRejectsBadBracket(t *testing.T) {
	cfg := server.DefaultConfig()
	if _, err := FindKnee(cfg, tpcw.Browsing(), 0, 100); err == nil {
		t.Error("lo=0 not rejected")
	}
	if _, err := FindKnee(cfg, tpcw.Browsing(), 100, 100); err == nil {
		t.Error("hi=lo not rejected")
	}
}

func TestGenerateTraceStructure(t *testing.T) {
	l := testLab(t)
	tr, err := l.TrainingTrace(tpcw.Browsing())
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Windows) < 30 {
		t.Fatalf("training trace has %d windows, want a rich trace", len(tr.Windows))
	}
	var over, under int
	nOS, nHPC := len(MetricNames(metrics.LevelOS)), len(MetricNames(metrics.LevelHPC))
	for _, w := range tr.Windows {
		if len(w.OS[server.TierApp]) != nOS ||
			len(w.OS[server.TierDB]) != nOS {
			t.Fatal("OS vector width mismatch")
		}
		if len(w.HPC[server.TierApp]) != nHPC ||
			len(w.HPC[server.TierDB]) != nHPC {
			t.Fatal("HPC vector width mismatch")
		}
		if w.Overload == 1 {
			over++
		} else {
			under++
		}
		if w.Mix == "" {
			t.Fatal("window missing mix name")
		}
	}
	// Training sets must carry both classes in quantity.
	if over < 5 || under < 5 {
		t.Errorf("label balance too skewed: %d overloaded, %d underloaded", over, under)
	}
	if len(tr.HPCSamples[server.TierApp]) != len(tr.Windows) {
		t.Errorf("PI sample series misaligned: %d vs %d windows",
			len(tr.HPCSamples[server.TierApp]), len(tr.Windows))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	w, err := testLab(t).Workload(tpcw.Browsing())
	if err != nil {
		t.Fatal(err)
	}
	cfg := TraceConfig{
		Server:   server.DefaultConfig(),
		Schedule: tpcw.Steady(w.Mix, w.Knee, 120),
		Window:   30,
		Seed:     5,
	}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Windows) != len(b.Windows) {
		t.Fatalf("window counts differ: %d vs %d", len(a.Windows), len(b.Windows))
	}
	for i := range a.Windows {
		if a.Windows[i].Overload != b.Windows[i].Overload {
			t.Fatalf("labels diverge at window %d", i)
		}
		for j := range a.Windows[i].HPC[server.TierDB] {
			if a.Windows[i].HPC[server.TierDB][j] != b.Windows[i].HPC[server.TierDB][j] {
				t.Fatalf("HPC vectors diverge at window %d metric %d", i, j)
			}
		}
	}
}

// TestGenerateTopologyIsData pins that TraceConfig.Topology says which
// site to simulate and selects no code path: nil is the two-tier topology
// of Server (spelling it out changes nothing, bit for bit), and another
// topology yields the same windows of a different site.
func TestGenerateTopologyIsData(t *testing.T) {
	cfg := TraceConfig{
		Server:          server.DefaultConfig(),
		Schedule:        tpcw.Steady(tpcw.Shopping(), 150, 90),
		Window:          30,
		Seed:            5,
		CollectOverhead: true,
		RecordSeconds:   true,
	}
	implicit, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	twoTier := server.TwoTierTopology(cfg.Server)
	cfg.Topology = &twoTier
	explicit, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(implicit, explicit) {
		t.Error("explicit TwoTierTopology(Server) trace differs from the nil-topology trace")
	}
	fourPool := server.DefaultTopologyConfig()
	cfg.Topology = &fourPool
	other, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(other.Windows) != len(implicit.Windows) {
		t.Fatalf("four-pool trace has %d windows, two-tier %d", len(other.Windows), len(implicit.Windows))
	}
	if reflect.DeepEqual(other.Windows, implicit.Windows) {
		t.Error("four-pool topology generated the two-tier trace")
	}
}

func TestBottleneckGroundTruthFollowsMix(t *testing.T) {
	l := testLab(t)
	for _, tc := range []struct {
		mix  tpcw.Mix
		want server.TierID
	}{
		{tpcw.Browsing(), server.TierDB},
		{tpcw.Ordering(), server.TierApp},
	} {
		tr, err := l.TrainingTrace(tc.mix)
		if err != nil {
			t.Fatal(err)
		}
		match, over := 0, 0
		for _, w := range tr.Windows {
			if w.Overload != 1 || w.Mix != tc.mix.Name {
				continue
			}
			over++
			if w.Bottleneck == tc.want {
				match++
			}
		}
		if over == 0 {
			t.Fatalf("%s: no overloaded windows of the plain mix", tc.mix.Name)
		}
		// Overload-onset windows can transiently peg the other tier
		// (a fresh surge floods the DB before the app queue builds), so
		// the match need not be perfect.
		if frac := float64(match) / float64(over); frac < 0.7 {
			t.Errorf("%s: bottleneck ground truth matches %s tier in only %.0f%% of overloaded windows",
				tc.mix.Name, tc.want, frac*100)
		}
	}
}

// mustCell reads one cell of a table by row and column name, failing the test
// when either is absent.
func mustCell(t testing.TB, tab *Table, row, col string) float64 {
	t.Helper()
	v, ok := tab.Cell(row, col)
	if !ok {
		t.Fatalf("%q: no cell (%q, %q)", strings.SplitN(tab.Title, "\n", 2)[0], row, col)
	}
	return v
}

func TestTable1Shape(t *testing.T) {
	l := testLab(t)
	t1a, err := l.RunTable1(TestBrowsing)
	if err != nil {
		t.Fatal(err)
	}
	t1b, err := l.RunTable1(TestOrdering)
	if err != nil {
		t.Fatal(err)
	}

	// Ordering input: only the ordering/app synopses are reliable.
	for _, level := range []string{"OS", "HPC"} {
		if ba := mustCell(t, t1b, "ordering app", level+":Naive"); ba < 0.8 {
			t.Errorf("table1b ordering/app/%s Naive = %.3f, want ≥0.8", level, ba)
		}
		// Synopses from the wrong workload+tier transfer poorly.
		if ba := mustCell(t, t1b, "browsing db", level+":TAN"); ba > 0.75 {
			t.Errorf("table1b browsing/db/%s TAN = %.3f, want poor transfer", level, ba)
		}
	}
	// Browsing input: the browsing/db synopses carry the signal.
	if ba := mustCell(t, t1a, "browsing db", "HPC:LR"); ba < 0.75 {
		t.Errorf("table1a browsing/db/HPC LR = %.3f, want ≥0.75", ba)
	}
	if ba := mustCell(t, t1a, "ordering app", "HPC:TAN"); ba > 0.75 {
		t.Errorf("table1a ordering/app/HPC TAN = %.3f, want poor transfer", ba)
	}
	// Every cell is a defined balanced accuracy.
	for _, res := range []*Table{t1a, t1b} {
		if len(res.Rows) != 4 || len(res.Cols) != 8 {
			t.Fatalf("table has %d rows × %d columns, want 2 workloads × 2 tiers by 2 levels × 4 learners",
				len(res.Rows), len(res.Cols))
		}
		for _, r := range res.Rows {
			for i, ba := range r.Vals {
				if ba < 0 || ba > 1 || math.IsNaN(ba) {
					t.Errorf("cell %v/%s BA = %v out of range", r.Keys, res.Cols[i].Name, ba)
				}
			}
		}
	}
	if _, ok := t1a.Cell("missing app", "OS:LR"); ok {
		t.Error("missing row found")
	}
}

func TestFig3Shape(t *testing.T) {
	l := testLab(t)
	res, err := l.RunFig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 10 {
		t.Fatalf("fig3 has %d points", len(res.Points))
	}
	// PI must agree with throughput in the driven regime (the paper's
	// "high agreement") and never lag it.
	if res.Agreement < 0.5 {
		t.Errorf("PI/throughput agreement = %.3f, want ≥0.5", res.Agreement)
	}
	if res.LeadWindows < 0 {
		t.Errorf("PI lags throughput by %d windows", -res.LeadWindows)
	}
	// Normalization: both series have geometric mean ≈ 1.
	var logPI, logThr float64
	n := 0
	for _, p := range res.Points {
		if p.PI > 0 && p.Throughput > 0 {
			logPI += math.Log(p.PI)
			logThr += math.Log(p.Throughput)
			n++
		}
	}
	if n > 0 {
		if gm := math.Exp(logPI / float64(n)); gm < 0.8 || gm > 1.25 {
			t.Errorf("normalized PI geometric mean = %v, want ≈1", gm)
		}
		if gm := math.Exp(logThr / float64(n)); gm < 0.8 || gm > 1.25 {
			t.Errorf("normalized throughput geometric mean = %v, want ≈1", gm)
		}
	}
	if tab := res.Table(); len(tab.Rows) != len(res.Points) {
		t.Errorf("fig3 table has %d rows for %d points", len(tab.Rows), len(res.Points))
	}
}

func TestWriteFig3CSV(t *testing.T) {
	res := &Fig3Result{
		Workload: "ordering",
		Tier:     server.TierApp,
		Points: []Fig3Point{
			{Time: 30, PI: 1.2, Throughput: 1.1, RawPI: 40, RawThroughput: 22, Overloaded: 0},
			{Time: 60, PI: 0.4, Throughput: 0.8, RawPI: 12, RawThroughput: 18, Overloaded: 1},
		},
	}
	var raw strings.Builder
	if err := res.WriteCSV(&raw); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(raw.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header + 2 points", len(lines))
	}
	if !strings.HasPrefix(lines[0], "time_s,") {
		t.Errorf("bad header %q", lines[0])
	}
	if !strings.HasPrefix(lines[2], "60,") || !strings.HasSuffix(lines[2], ",1") {
		t.Errorf("bad data row %q", lines[2])
	}
}

func TestFig4Shape(t *testing.T) {
	l := testLab(t)
	res, err := l.RunFig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("fig4 has %d rows, want 4 workloads", len(res.Rows))
	}
	// HPC metrics must give useful coordinated accuracy on the known and
	// interleaved workloads even at quick scale.
	for _, kind := range []TestKind{TestOrdering, TestBrowsing, TestInterleaved} {
		if ba := mustCell(t, res, kind.String(), "HPC overload"); ba < 65 {
			t.Errorf("fig4a HPC %s = %.1f%%, want ≥65%% at quick scale", kind, ba)
		}
	}
	// Averaged over the four workloads, HPC must not lose to OS.
	var osSum, hpcSum float64
	for _, kind := range TestKinds() {
		osSum += mustCell(t, res, kind.String(), "OS overload")
		hpcSum += mustCell(t, res, kind.String(), "HPC overload")
	}
	if hpcSum < osSum-5 {
		t.Errorf("mean HPC coordinated accuracy %.1f%% below OS %.1f%%", hpcSum/4, osSum/4)
	}
}

func TestTimingShape(t *testing.T) {
	l := testLab(t)
	res, err := l.RunTiming()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("timing has %d rows, want 4", len(res.Rows))
	}
	svm, naive, tan := mustCell(t, res, "SVM", "build"), mustCell(t, res, "Naive", "build"), mustCell(t, res, "TAN", "build")
	// The paper's cost ordering: SVM training is an order of magnitude
	// beyond the others; Naive is cheapest.
	if svm < 5*naive {
		t.Errorf("SVM build %v not ≫ Naive build %v", time.Duration(svm), time.Duration(naive))
	}
	if svm < tan {
		t.Errorf("SVM build %v not above TAN build %v", time.Duration(svm), time.Duration(tan))
	}
	for _, row := range res.Rows {
		// The paper's online decisions take ≤50 ms; ours must be far
		// below even that.
		if decide := time.Duration(mustCell(t, res, row.Keys[0], "single decide")); decide > 50*time.Millisecond {
			t.Errorf("%s decision %v exceeds the paper's 50 ms budget", row.Keys[0], decide)
		}
	}
}

func TestOverheadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed overhead runs are slow")
	}
	l := testLab(t)
	res, err := l.RunOverhead()
	if err != nil {
		t.Fatal(err)
	}
	hpcLoss := mustCell(t, res, "hpc", "thr loss %")
	osLoss := mustCell(t, res, "os", "thr loss %")
	if none := mustCell(t, res, "none", "thr loss %"); none != 0 {
		t.Errorf("baseline loss %.2f%%, want 0", none)
	}
	if osLoss <= hpcLoss {
		t.Errorf("OS collection loss %.2f%% not above HPC loss %.2f%%", osLoss, hpcLoss)
	}
	if osLoss <= 0.5 || osLoss > 25 {
		t.Errorf("OS collection loss %.2f%% out of the plausible band", osLoss)
	}
	if hpcLoss > 5 {
		t.Errorf("HPC collection loss %.2f%% too large", hpcLoss)
	}
}

func TestTestTraceKinds(t *testing.T) {
	l := testLab(t)
	for _, kind := range TestKinds() {
		tr, err := l.TestTrace(kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(tr.Windows) < 10 {
			t.Errorf("%s test trace has %d windows", kind, len(tr.Windows))
		}
	}
	if _, err := l.TestTrace(TestKind("nope")); err == nil {
		t.Error("unknown test kind not rejected")
	}
	// The interleaved trace must contain both mixes.
	tr, err := l.TestTrace(TestInterleaved)
	if err != nil {
		t.Fatal(err)
	}
	mixes := map[string]bool{}
	for _, w := range tr.Windows {
		mixes[w.Mix] = true
	}
	if !mixes["browsing"] || !mixes["ordering"] {
		t.Errorf("interleaved trace mixes = %v, want both", mixes)
	}
}

func TestSchedulesUseThinkVariation(t *testing.T) {
	w, err := testLab(t).Workload(tpcw.Ordering())
	if err != nil {
		t.Fatal(err)
	}
	sched := TrainingSchedule(w, QuickScale())
	varied := 0
	for _, p := range sched.Phases {
		if p.ThinkScale != 0 && p.ThinkScale != 1 {
			varied++
		}
	}
	if varied < 2 {
		t.Errorf("training schedule has %d think-varied phases, want ≥2", varied)
	}
}

func TestBaselinesShape(t *testing.T) {
	l := testLab(t)
	res, err := l.RunBaselines()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 || len(res.Cols) != 8 {
		t.Fatalf("baselines table is %d rows × %d columns, want 4 workloads and the mean by 4 detectors × (BA, lag)",
			len(res.Rows), len(res.Cols))
	}
	// The coordinated monitor must beat every baseline on mean balanced
	// accuracy — the paper's raison d'être.
	coord := mustCell(t, res, "mean", "coordinated-hpc")
	for _, d := range []string{"pi-threshold", "rt-threshold", "util-threshold"} {
		if ba := mustCell(t, res, "mean", d); ba >= coord {
			t.Errorf("%s mean BA %.1f%% not below the coordinated monitor's %.1f%%", d, ba, coord)
		}
	}
	// The single-PI rule must collapse off its calibration regime
	// ("the single PI metric is not enough", §II.A).
	if ba := mustCell(t, res, "unknown", "pi-threshold"); ba > 75 {
		t.Errorf("pi-threshold on unknown input should be weak, got %.1f%%", ba)
	}
	// The response-time trigger observes completed requests only, so it
	// fires at least a window late on average (the dead-time effect).
	rtLag := mustCell(t, res, "mean", "rt-threshold lag")
	if rtLag < 0.5 {
		t.Errorf("rt-threshold mean lag = %.2f windows, want the dead-time delay", rtLag)
	}
	if lag := mustCell(t, res, "mean", "coordinated-hpc lag"); lag > rtLag {
		t.Errorf("coordinated lag %.2f not below the RT trigger's %.2f", lag, rtLag)
	}
}

func TestLevelComparisonShape(t *testing.T) {
	l := testLab(t)
	res, err := l.RunLevelComparison()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 || len(res.Cols) != 3 {
		t.Fatalf("level table is %d rows × %d columns, want 4 workloads by 3 levels", len(res.Rows), len(res.Cols))
	}
	for _, r := range res.Rows {
		for i, ba := range r.Vals {
			if ba < 40 || ba > 100 {
				t.Errorf("%s/%s BA = %.1f%% out of plausible range", res.Cols[i].Name, r.Keys[0], ba)
			}
		}
	}
}

func TestCombinedLevelVectors(t *testing.T) {
	l := testLab(t)
	tr, err := l.TrainingTrace(tpcw.Browsing())
	if err != nil {
		t.Fatal(err)
	}
	names := MetricNames(metrics.LevelCombined)
	osNames, hpcNames := MetricNames(metrics.LevelOS), MetricNames(metrics.LevelHPC)
	if !slices.Equal(names, slices.Concat(osNames, hpcNames)) {
		t.Fatalf("combined names = %v, want the OS names then the HPC names", names)
	}
	w := tr.Windows[0]
	vecs := w.Vectors(metrics.LevelCombined)
	if len(vecs[server.TierApp]) != len(names) {
		t.Fatalf("combined vector = %d values, want %d", len(vecs[server.TierApp]), len(names))
	}
	// OS part first, HPC part appended.
	if vecs[server.TierApp][0] != w.OS[server.TierApp][0] {
		t.Error("combined vector does not start with the OS vector")
	}
	if vecs[server.TierApp][len(osNames)] != w.HPC[server.TierApp][0] {
		t.Error("combined vector does not continue with the HPC vector")
	}
}
