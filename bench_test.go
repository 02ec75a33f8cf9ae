// Benchmarks regenerating every table and figure of the paper's evaluation
// (§V), one benchmark per artifact, plus microbenchmarks of the online hot
// paths. Macro benchmarks run the full experiment at QuickScale per
// iteration and report the headline numbers via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// both regenerates the evaluation and profiles the implementation.
package hpcap_test

import (
	"sync"
	"testing"

	"hpcap"
)

// benchLab is shared across macro benchmarks: the experiments intentionally
// reuse one testbed's traces, exactly as the paper's do.
var (
	benchOnce sync.Once
	benchLab  *hpcap.Lab
)

func sharedLab(b *testing.B) *hpcap.Lab {
	b.Helper()
	benchOnce.Do(func() {
		benchLab = hpcap.NewLab(hpcap.QuickScale())
	})
	return benchLab
}

// cell reads one cell of an experiment's table by row and column name.
func cell(b *testing.B, res interface {
	Cell(row, col string) (float64, bool)
}, row, col string) float64 {
	b.Helper()
	v, ok := res.Cell(row, col)
	if !ok {
		b.Fatalf("no cell (%q, %q)", row, col)
	}
	return v
}

// BenchmarkTable1aBrowsingInput regenerates Table I(a): individual synopsis
// accuracy under the browsing-mix test input.
func BenchmarkTable1aBrowsingInput(b *testing.B) {
	lab := sharedLab(b)
	for i := 0; i < b.N; i++ {
		res, err := lab.RunTable1(hpcap.TestBrowsing)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cell(b, res, "browsing db", "HPC:TAN"), "BA/browsing-db-hpc-tan")
	}
}

// BenchmarkTable1bOrderingInput regenerates Table I(b): individual synopsis
// accuracy under the ordering-mix test input.
func BenchmarkTable1bOrderingInput(b *testing.B) {
	lab := sharedLab(b)
	for i := 0; i < b.N; i++ {
		res, err := lab.RunTable1(hpcap.TestOrdering)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cell(b, res, "ordering app", "HPC:TAN"), "BA/ordering-app-hpc-tan")
	}
}

// BenchmarkFig3PIVersusThroughput regenerates Figure 3: the productivity
// index tracking application throughput through an ordering-mix drive into
// overload.
func BenchmarkFig3PIVersusThroughput(b *testing.B) {
	lab := sharedLab(b)
	for i := 0; i < b.N; i++ {
		res, err := lab.RunFig3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Agreement, "corr/pi-throughput")
		b.ReportMetric(float64(res.LeadWindows), "windows/pi-lead")
	}
}

// BenchmarkFig4aCoordinatedOverload regenerates Figure 4(a): coordinated
// overload prediction accuracy over the four test workloads.
func BenchmarkFig4aCoordinatedOverload(b *testing.B) {
	lab := sharedLab(b)
	for i := 0; i < b.N; i++ {
		res, err := lab.RunFig4()
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, kind := range []hpcap.TestKind{hpcap.TestOrdering, hpcap.TestBrowsing, hpcap.TestInterleaved, hpcap.TestUnknown} {
			sum += cell(b, res, string(kind), "HPC overload")
		}
		b.ReportMetric(sum/4, "%BA/hpc-mean")
	}
}

// BenchmarkFig4bBottleneckID regenerates Figure 4(b): coordinated
// bottleneck identification accuracy.
func BenchmarkFig4bBottleneckID(b *testing.B) {
	lab := sharedLab(b)
	for i := 0; i < b.N; i++ {
		res, err := lab.RunFig4()
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, kind := range []hpcap.TestKind{hpcap.TestOrdering, hpcap.TestBrowsing, hpcap.TestInterleaved, hpcap.TestUnknown} {
			sum += cell(b, res, string(kind), "HPC bottleneck")
		}
		b.ReportMetric(sum/4, "%acc/hpc-mean")
	}
}

// BenchmarkTimingLearnerCost regenerates the §V.B learner cost comparison
// (synopsis build and single-decision time per learner).
func BenchmarkTimingLearnerCost(b *testing.B) {
	lab := sharedLab(b)
	for i := 0; i < b.N; i++ {
		res, err := lab.RunTiming()
		if err != nil {
			b.Fatal(err)
		}
		tan := cell(b, res, "TAN", "build")
		if tan == 0 {
			b.Fatal("TAN build took no time")
		}
		b.ReportMetric(cell(b, res, "SVM", "build")/tan, "x/svm-vs-tan-build")
	}
}

// BenchmarkOverheadCollection regenerates the §V.D metric-collection
// overhead experiment (throughput loss of HPC vs OS collection).
func BenchmarkOverheadCollection(b *testing.B) {
	lab := sharedLab(b)
	for i := 0; i < b.N; i++ {
		res, err := lab.RunOverhead()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cell(b, res, "hpc", "thr loss %"), "%loss/hpc")
		b.ReportMetric(cell(b, res, "os", "thr loss %"), "%loss/os")
	}
}

// BenchmarkAblationHistory regenerates the §V.C sensitivity study over
// history lengths and tie-break schemes.
func BenchmarkAblationHistory(b *testing.B) {
	lab := sharedLab(b)
	for i := 0; i < b.N; i++ {
		res, err := lab.RunAblation()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cell(b, res, hpcap.Optimistic.String()+" "+string(hpcap.TestInterleaved), "h=3"), "%BA/h3-optimistic")
	}
}

// BenchmarkBaselineComparison regenerates the baseline-detector comparison
// (single-PI / RT / utilization thresholds vs the coordinated monitor).
func BenchmarkBaselineComparison(b *testing.B) {
	lab := sharedLab(b)
	for i := 0; i < b.N; i++ {
		res, err := lab.RunBaselines()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cell(b, res, "mean", "coordinated-hpc"), "%BA/coordinated")
		b.ReportMetric(cell(b, res, "mean", "pi-threshold"), "%BA/single-pi")
		b.ReportMetric(cell(b, res, "mean", "rt-threshold lag"), "windows/rt-lag")
	}
}

// BenchmarkLevelComparison regenerates the OS vs HPC vs combined monitor
// comparison (the paper's future-work extension).
func BenchmarkLevelComparison(b *testing.B) {
	lab := sharedLab(b)
	for i := 0; i < b.N; i++ {
		res, err := lab.RunLevelComparison()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cell(b, res, string(hpcap.TestInterleaved), hpcap.LevelCombined.String()), "%BA/combined-interleaved")
	}
}

// BenchmarkSimulatedSecond measures the discrete-event simulator's speed:
// one virtual second of a loaded two-tier site per iteration.
func BenchmarkSimulatedSecond(b *testing.B) {
	tb, err := hpcap.NewTestbed(hpcap.DefaultServerConfig(),
		hpcap.Steady(hpcap.Shopping(), 200, 1e9))
	if err != nil {
		b.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		b.Fatal(err)
	}
	tb.RunInterval(60) // warm-up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.RunInterval(1)
	}
}

// BenchmarkHPCCollect measures one hardware-counter collection.
func BenchmarkHPCCollect(b *testing.B) {
	cfg := hpcap.DefaultServerConfig()
	tb, err := hpcap.NewTestbed(cfg, hpcap.Steady(hpcap.Shopping(), 100, 1e9))
	if err != nil {
		b.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		b.Fatal(err)
	}
	snap := tb.RunInterval(30)
	c := hpcap.NewHPCCollector(hpcap.TierApp, cfg.App.Machine, 0.02, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Collect(snap, 1)
	}
}

// BenchmarkOSCollect measures one Sysstat-style collection (64 metrics).
func BenchmarkOSCollect(b *testing.B) {
	cfg := hpcap.DefaultServerConfig()
	tb, err := hpcap.NewTestbed(cfg, hpcap.Steady(hpcap.Shopping(), 100, 1e9))
	if err != nil {
		b.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		b.Fatal(err)
	}
	snap := tb.RunInterval(30)
	c := hpcap.NewOSCollector(hpcap.TierApp, 512, 0.05, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Collect(snap, 1)
	}
}

// BenchmarkMonitorPredict measures one online coordinated prediction (the
// paper budgets 50 ms per decision; this path must be microseconds).
func BenchmarkMonitorPredict(b *testing.B) {
	lab := sharedLab(b)
	monitor, err := lab.TrainMonitor(hpcap.LevelHPC, hpcap.CoordinatorConfig{})
	if err != nil {
		b.Fatal(err)
	}
	test, err := lab.TestTrace(hpcap.TestInterleaved)
	if err != nil {
		b.Fatal(err)
	}
	w := test.Windows[len(test.Windows)/2]
	obs := hpcap.Observation{Time: w.Time, Vectors: w.HPC}
	sess := monitor.NewSession()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Predict(obs); err != nil {
			b.Fatal(err)
		}
	}
}
