package experiment

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

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
	for _, w := range tr.Windows {
		if len(w.OS[server.TierApp]) != len(tr.OSNames) ||
			len(w.OS[server.TierDB]) != len(tr.OSNames) {
			t.Fatal("OS vector width mismatch")
		}
		if len(w.HPC[server.TierApp]) != len(tr.HPCNames) ||
			len(w.HPC[server.TierDB]) != len(tr.HPCNames) {
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
	for _, level := range []metrics.Level{metrics.LevelOS, metrics.LevelHPC} {
		if ba := t1b.Cell("ordering", server.TierApp, level, "Naive"); ba < 0.8 {
			t.Errorf("table1b ordering/app/%s Naive = %.3f, want ≥0.8", level, ba)
		}
		// Synopses from the wrong workload+tier transfer poorly.
		if ba := t1b.Cell("browsing", server.TierDB, level, "TAN"); ba > 0.75 {
			t.Errorf("table1b browsing/db/%s TAN = %.3f, want poor transfer", level, ba)
		}
	}
	// Browsing input: the browsing/db synopses carry the signal.
	if ba := t1a.Cell("browsing", server.TierDB, metrics.LevelHPC, "LR"); ba < 0.75 {
		t.Errorf("table1a browsing/db/HPC LR = %.3f, want ≥0.75", ba)
	}
	if ba := t1a.Cell("ordering", server.TierApp, metrics.LevelHPC, "TAN"); ba > 0.75 {
		t.Errorf("table1a ordering/app/HPC TAN = %.3f, want poor transfer", ba)
	}
	// Every cell is a defined balanced accuracy.
	for _, res := range []*Table1Result{t1a, t1b} {
		if len(res.Cells) != 32 {
			t.Fatalf("table has %d cells, want 2 workloads × 2 tiers × 2 levels × 4 learners = 32",
				len(res.Cells))
		}
		for _, c := range res.Cells {
			if c.BA < 0 || c.BA > 1 || math.IsNaN(c.BA) {
				t.Errorf("cell %s/%s/%s/%s BA = %v out of range",
					c.Workload, c.Tier, c.Level, c.Learner, c.BA)
			}
		}
	}
	if t1a.Cell("missing", server.TierApp, metrics.LevelOS, "LR") != -1 {
		t.Error("missing cell should return -1")
	}
	if t1a.String() == "" || t1b.String() == "" {
		t.Error("empty table rendering")
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
	if res.String() == "" {
		t.Error("empty fig3 rendering")
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
	if len(res.Rows) != 8 {
		t.Fatalf("fig4 has %d rows, want 4 workloads × 2 levels", len(res.Rows))
	}
	// HPC metrics must give useful coordinated accuracy on the known and
	// interleaved workloads even at quick scale.
	for _, kind := range []TestKind{TestOrdering, TestBrowsing, TestInterleaved} {
		row := res.Row(kind, metrics.LevelHPC)
		if row == nil {
			t.Fatalf("missing row %s/HPC", kind)
		}
		if row.Overload < 0.65 {
			t.Errorf("fig4a HPC %s = %.3f, want ≥0.65 at quick scale", kind, row.Overload)
		}
	}
	// Averaged over the four workloads, HPC must not lose to OS.
	var osSum, hpcSum float64
	for _, kind := range TestKinds() {
		osSum += res.Row(kind, metrics.LevelOS).Overload
		hpcSum += res.Row(kind, metrics.LevelHPC).Overload
	}
	if hpcSum < osSum-0.05 {
		t.Errorf("mean HPC coordinated accuracy %.3f below OS %.3f", hpcSum/4, osSum/4)
	}
	if res.String() == "" {
		t.Error("empty fig4 rendering")
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
	svm := res.Row("SVM")
	naive := res.Row("Naive")
	tan := res.Row("TAN")
	if svm == nil || naive == nil || tan == nil {
		t.Fatal("missing learner rows")
	}
	// The paper's cost ordering: SVM training is an order of magnitude
	// beyond the others; Naive is cheapest.
	if svm.Build < 5*naive.Build {
		t.Errorf("SVM build %v not ≫ Naive build %v", svm.Build, naive.Build)
	}
	if svm.Build < tan.Build {
		t.Errorf("SVM build %v not above TAN build %v", svm.Build, tan.Build)
	}
	for _, row := range res.Rows {
		// The paper's online decisions take ≤50 ms; ours must be far
		// below even that.
		if row.Decide.Milliseconds() > 50 {
			t.Errorf("%s decision %v exceeds the paper's 50 ms budget", row.Learner, row.Decide)
		}
	}
	if res.String() == "" {
		t.Error("empty timing rendering")
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
	none, hpc, osRow := res.Row("none"), res.Row("hpc"), res.Row("os")
	if none == nil || hpc == nil || osRow == nil {
		t.Fatal("missing overhead rows")
	}
	hpcLoss := 1 - hpc.RelThroughput
	osLoss := 1 - osRow.RelThroughput
	if osLoss <= hpcLoss {
		t.Errorf("OS collection loss %.3f not above HPC loss %.3f", osLoss, hpcLoss)
	}
	if osLoss <= 0.005 || osLoss > 0.25 {
		t.Errorf("OS collection loss %.3f out of the plausible band", osLoss)
	}
	if hpcLoss > 0.05 {
		t.Errorf("HPC collection loss %.3f too large", hpcLoss)
	}
	if res.String() == "" {
		t.Error("empty overhead rendering")
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
	if len(res.Rows) != 16 {
		t.Fatalf("baseline rows = %d, want 4 detectors × 4 workloads", len(res.Rows))
	}
	// The coordinated monitor must beat every baseline on mean balanced
	// accuracy — the paper's raison d'être.
	coord := res.MeanBA("coordinated-hpc")
	for _, d := range []string{"pi-threshold", "rt-threshold", "util-threshold"} {
		if ba := res.MeanBA(d); ba >= coord {
			t.Errorf("%s mean BA %.3f not below the coordinated monitor's %.3f", d, ba, coord)
		}
	}
	// The single-PI rule must collapse off its calibration regime
	// ("the single PI metric is not enough", §II.A).
	if row := res.Row("pi-threshold", TestUnknown); row == nil || row.Overload > 0.75 {
		t.Errorf("pi-threshold on unknown input should be weak, got %+v", row)
	}
	// The response-time trigger observes completed requests only, so it
	// fires at least a window late on average (the dead-time effect).
	if lag := res.MeanLag("rt-threshold"); lag < 0.5 {
		t.Errorf("rt-threshold mean lag = %.2f windows, want the dead-time delay", lag)
	}
	if lag := res.MeanLag("coordinated-hpc"); lag > res.MeanLag("rt-threshold") {
		t.Errorf("coordinated lag %.2f not below the RT trigger's %.2f",
			lag, res.MeanLag("rt-threshold"))
	}
	if res.String() == "" {
		t.Error("empty baseline rendering")
	}
}

func TestLevelComparisonShape(t *testing.T) {
	l := testLab(t)
	res, err := l.RunLevelComparison()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("level rows = %d, want 3 levels × 4 workloads", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Overload < 0.4 || row.Overload > 1 {
			t.Errorf("%s/%s BA = %.3f out of plausible range", row.Level, row.Workload, row.Overload)
		}
	}
	if res.String() == "" {
		t.Error("empty level rendering")
	}
}

func TestCombinedLevelVectors(t *testing.T) {
	l := testLab(t)
	tr, err := l.TrainingTrace(tpcw.Browsing())
	if err != nil {
		t.Fatal(err)
	}
	names := tr.Names(metrics.LevelCombined)
	if len(names) != len(tr.OSNames)+len(tr.HPCNames) {
		t.Fatalf("combined names = %d, want %d", len(names), len(tr.OSNames)+len(tr.HPCNames))
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
	if vecs[server.TierApp][len(tr.OSNames)] != w.HPC[server.TierApp][0] {
		t.Error("combined vector does not continue with the HPC vector")
	}
}
