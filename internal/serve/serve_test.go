package serve_test

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hpcap/internal/core"
	"hpcap/internal/cpu"
	"hpcap/internal/experiment"
	"hpcap/internal/metrics"
	"hpcap/internal/predictor"
	"hpcap/internal/serve"
	"hpcap/internal/server"
	"hpcap/internal/tpcw"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureLevel is the metric level every serving test monitors at.
const fixtureLevel = metrics.LevelHPC

// fx holds the shared (expensive) fixture: a quick-scale lab, a trained
// HPC monitor, and the interleaved bottleneck-shifting test trace with its
// per-second recordings.
var fx struct {
	once sync.Once
	err  error
	lab  *experiment.Lab
	mon  *core.Monitor
	tr   *experiment.Trace
}

func fixture(t testing.TB) (*experiment.Lab, *core.Monitor, *experiment.Trace) {
	t.Helper()
	fx.once.Do(func() {
		lab := experiment.NewLab(experiment.QuickScale())
		mon, err := lab.TrainMonitor(fixtureLevel, predictor.Config{})
		if err != nil {
			fx.err = fmt.Errorf("train monitor: %w", err)
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
		// The lab's own interleaved test trace (same seed), regenerated
		// with per-second recording switched on.
		tr, err := experiment.Generate(experiment.TraceConfig{
			Server:        lab.Server,
			Schedule:      experiment.InterleavedSchedule(wb, wo, lab.Scale),
			Window:        lab.Scale.Window,
			Warmup:        lab.Scale.WarmupWindows,
			Seed:          lab.Seed + 104,
			Labeler:       lab.Labeler,
			RecordSeconds: true,
		})
		if err != nil {
			fx.err = fmt.Errorf("generate trace: %w", err)
			return
		}
		if len(tr.SecTimes) != len(tr.Windows)*lab.Scale.Window {
			fx.err = fmt.Errorf("recorded %d seconds for %d windows of %d",
				len(tr.SecTimes), len(tr.Windows), lab.Scale.Window)
			return
		}
		fx.lab, fx.mon, fx.tr = lab, mon, tr
	})
	if fx.err != nil {
		t.Fatalf("fixture: %v", fx.err)
	}
	return fx.lab, fx.mon, fx.tr
}

// secondVectors pulls the recorded per-second vectors for every tier.
func secondVectors(tr *experiment.Trace) [server.NumTiers][][]float64 {
	var vecs [server.NumTiers][][]float64
	for tier := server.TierID(0); tier < server.NumTiers; tier++ {
		vecs[tier] = tr.SecondVectors(fixtureLevel, tier)
	}
	return vecs
}

// stream feeds the whole recorded trace to the pipeline as one site,
// leaving the last window open.
func stream(p *serve.Pipeline, site string, tr *experiment.Trace) {
	vecs := secondVectors(tr)
	for i, ts := range tr.SecTimes {
		for tier := server.TierID(0); tier < server.NumTiers; tier++ {
			p.Ingest(serve.Sample{Site: site, Tier: tier, Time: ts, Values: vecs[tier][i]})
		}
	}
}

// replay streams the trace as one site and ends the stream.
func replay(p *serve.Pipeline, site string, tr *experiment.Trace) {
	stream(p, site, tr)
	p.Flush()
}

// formatDecisions renders decisions in the golden-file layout.
func formatDecisions(ds []serve.Decision) string {
	var b strings.Builder
	for _, d := range ds {
		bott := "-"
		if d.Prediction.Overload {
			bott = d.Prediction.Bottleneck.String()
		}
		gpv := make([]byte, len(d.Prediction.GPV))
		for i, v := range d.Prediction.GPV {
			gpv[i] = '0' + byte(v)
		}
		fmt.Fprintf(&b, "seq=%d t=%g overload=%t bottleneck=%s gpv=%s degraded=%t missing=%d\n",
			d.Seq, d.Time, d.Prediction.Overload, bott, gpv, d.Degraded, d.Missing)
	}
	return b.String()
}

// TestStreamingMatchesBatch is the serving layer's core guarantee: replaying
// a recorded trace sample-by-sample yields exactly the decisions one core
// Session computes from the batch-aggregated windows — same prediction,
// same GPV, same timestamps — with the sequence golden-pinned. Both sides
// decide through the same scoring tables, so the oracle checks the
// streaming window arithmetic and the engine's session bookkeeping; the
// decision kernel itself is held to core's frozen reference transcript.
func TestStreamingMatchesBatch(t *testing.T) {
	_, mon, tr := fixture(t)
	var decisions []serve.Decision
	p, err := serve.NewPipeline(mon, serve.Config{
		Window:     30,
		OnDecision: func(d serve.Decision) { decisions = append(decisions, d) },
	})
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	replay(p, "replay", tr)

	if len(decisions) != len(tr.Windows) {
		t.Fatalf("streamed %d decisions, batch has %d windows", len(decisions), len(tr.Windows))
	}
	sess := mon.NewSession()
	for i, w := range tr.Windows {
		want, err := sess.Predict(core.Observation{Time: w.Time, Vectors: w.Vectors(fixtureLevel)})
		if err != nil {
			t.Fatalf("batch predict window %d: %v", i, err)
		}
		d := decisions[i]
		if d.Degraded || d.Missing != 0 {
			t.Errorf("window %d: clean stream marked degraded (missing %d)", i, d.Missing)
		}
		if d.Time != w.Time {
			t.Errorf("window %d: time %g, batch %g", i, d.Time, w.Time)
		}
		if !reflect.DeepEqual(d.Prediction, want) {
			t.Errorf("window %d: streamed %+v, batch %+v", i, d.Prediction, want)
		}
	}

	st, ok := p.SiteStats("replay")
	if !ok {
		t.Fatal("site stats missing")
	}
	if got, want := st.WindowsDecided, uint64(len(tr.Windows)); got != want {
		t.Errorf("WindowsDecided = %d, want %d", got, want)
	}
	if st.WindowsDegraded != 0 || st.WindowsDropped != 0 || st.SamplesLate != 0 ||
		st.SamplesBadValue != 0 || st.SamplesBadShape != 0 || st.PredictErrors != 0 {
		t.Errorf("clean stream tripped degradation counters: %+v", st)
	}
	if got, want := st.SamplesIngested, uint64(len(tr.SecTimes)*int(server.NumTiers)); got != want {
		t.Errorf("SamplesIngested = %d, want %d", got, want)
	}

	got := formatDecisions(decisions)
	golden := filepath.Join("testdata", "interleaved_decisions.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (re-run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("decision sequence drifted from golden %s;\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestMalformedStreamDegradesGracefully drops, corrupts, and duplicates
// samples mid-stream and asserts the pipeline neither panics nor stalls:
// windows inside the staleness budget are decided degraded, the window
// beyond it is dropped, and every skip lands on a counter.
func TestMalformedStreamDegradesGracefully(t *testing.T) {
	lab, mon, tr := fixture(t)
	W := lab.Scale.Window
	var decisions []serve.Decision
	p, err := serve.NewPipeline(mon, serve.Config{
		Window:     W,
		OnDecision: func(d serve.Decision) { decisions = append(decisions, d) },
	})
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	vecs := secondVectors(tr)
	nWin := len(tr.Windows)
	if nWin < 10 {
		t.Fatalf("trace too short for the fault schedule: %d windows", nWin)
	}

	offered := 0
	ingest := func(s serve.Sample) {
		offered++
		p.Ingest(s)
	}
	for i, ts := range tr.SecTimes {
		k, off := i/W, i%W // window ordinal and offset within it
		for tier := server.TierID(0); tier < server.NumTiers; tier++ {
			v := vecs[tier][i]
			switch {
			case k == 2 && tier == server.TierApp && off < 3:
				continue // silently lost: within the budget of 5
			case k == 4 && tier == server.TierApp && off == 0:
				bad := append([]float64(nil), v...)
				bad[0] = math.NaN()
				ingest(serve.Sample{Site: "s", Tier: tier, Time: ts, Values: bad})
				continue // counter wrapped: sample skipped, window degraded
			case k == 6 && off < 10:
				continue // outage: 10 lost per tier, over budget, window dropped
			}
			ingest(serve.Sample{Site: "s", Tier: tier, Time: ts, Values: v})
			if k == 8 && tier == server.TierDB && off == 5 {
				// Duplicate delivery of the sample just sent.
				ingest(serve.Sample{Site: "s", Tier: tier, Time: ts, Values: v})
			}
		}
	}
	// Garbage that must bounce off shape validation.
	ingest(serve.Sample{Site: "s", Tier: server.TierID(9), Time: 1e9, Values: vecs[0][0]})
	ingest(serve.Sample{Site: "s", Tier: server.TierApp, Time: 1e9, Values: []float64{1, 2}})
	p.Flush()

	if got, want := len(decisions), nWin-1; got != want {
		t.Fatalf("decided %d windows, want %d (one dropped)", got, want)
	}
	first := decisions[0].Seq
	seqs := make(map[int64]serve.Decision, len(decisions))
	for _, d := range decisions {
		seqs[d.Seq] = d
	}
	if _, ok := seqs[first+6]; ok {
		t.Errorf("window %d was over the staleness budget but got decided", first+6)
	}
	var degraded []serve.Decision
	for _, d := range decisions {
		if d.Degraded {
			degraded = append(degraded, d)
		}
	}
	if len(degraded) != 2 {
		t.Fatalf("degraded %d windows, want 2: %+v", len(degraded), degraded)
	}
	if d := seqs[first+2]; !d.Degraded || d.Missing != 3 {
		t.Errorf("window %d: degraded=%t missing=%d, want degraded with 3 missing", first+2, d.Degraded, d.Missing)
	}
	if d := seqs[first+4]; !d.Degraded || d.Missing != 1 {
		t.Errorf("window %d: degraded=%t missing=%d, want degraded with 1 missing", first+4, d.Degraded, d.Missing)
	}

	st, ok := p.SiteStats("s")
	if !ok {
		t.Fatal("site stats missing")
	}
	if got, want := st.SamplesIngested, uint64(offered); got != want {
		t.Errorf("SamplesIngested = %d, want %d", got, want)
	}
	if st.WindowsDecided != uint64(nWin-1) || st.WindowsDegraded != 2 || st.WindowsDropped != 1 {
		t.Errorf("window counters decided=%d degraded=%d dropped=%d, want %d/2/1",
			st.WindowsDecided, st.WindowsDegraded, st.WindowsDropped, nWin-1)
	}
	if st.SamplesBadValue != 1 {
		t.Errorf("SamplesBadValue = %d, want 1", st.SamplesBadValue)
	}
	if st.SamplesLate != 1 {
		t.Errorf("SamplesLate = %d, want 1", st.SamplesLate)
	}
	if st.SamplesBadShape != 2 {
		t.Errorf("SamplesBadShape = %d, want 2", st.SamplesBadShape)
	}
	last := decisions[len(decisions)-1]
	if p.Overloaded("s") != last.Prediction.Overload {
		t.Errorf("Overloaded = %t, last decision said %t", p.Overloaded("s"), last.Prediction.Overload)
	}
}

// TestFlushPartialWindow closes a half-filled window at end of stream: a
// partial mean inside the budget is decided degraded; under a strict
// (negative) budget the same tail is dropped instead.
func TestFlushPartialWindow(t *testing.T) {
	lab, mon, tr := fixture(t)
	W := lab.Scale.Window
	vecs := secondVectors(tr)
	feed := func(p *serve.Pipeline, seconds int) {
		for i := 0; i < seconds; i++ {
			for tier := server.TierID(0); tier < server.NumTiers; tier++ {
				p.Ingest(serve.Sample{Site: "s", Tier: tier, Time: tr.SecTimes[i], Values: vecs[tier][i]})
			}
		}
	}

	var decisions []serve.Decision
	p, err := serve.NewPipeline(mon, serve.Config{
		OnDecision: func(d serve.Decision) { decisions = append(decisions, d) },
	})
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	feed(p, W+27) // one clean window plus 27 seconds of the next
	p.Flush()
	if len(decisions) != 2 {
		t.Fatalf("decided %d windows, want 2", len(decisions))
	}
	if decisions[0].Degraded {
		t.Error("full window flagged degraded")
	}
	if d := decisions[1]; !d.Degraded || d.Missing != 2*3 {
		t.Errorf("partial window: degraded=%t missing=%d, want degraded with 6 missing", d.Degraded, d.Missing)
	}
	decisions = decisions[:0]
	p.Flush() // idempotent: nothing left open
	if len(decisions) != 0 {
		t.Errorf("second Flush decided %d windows, want 0", len(decisions))
	}

	// Strict budget: any missing sample drops the window.
	decisions = nil
	strict, err := serve.NewPipeline(mon, serve.Config{
		StalenessBudget: -1,
		OnDecision:      func(d serve.Decision) { decisions = append(decisions, d) },
	})
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	feed(strict, W+27)
	strict.Flush()
	if len(decisions) != 1 {
		t.Fatalf("strict budget decided %d windows, want 1", len(decisions))
	}
	st, _ := strict.SiteStats("s")
	if st.WindowsDropped != 1 {
		t.Errorf("strict budget WindowsDropped = %d, want 1", st.WindowsDropped)
	}
}

// TestAdmissionValveClosesLoop runs the full control loop on the live
// testbed: collectors feed the pipeline, the pipeline's valve gates
// admission, and a sustained burst past the knee is detected and shed.
func TestAdmissionValveClosesLoop(t *testing.T) {
	lab, mon, _ := fixture(t)
	wb, err := lab.Workload(tpcw.Browsing())
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	sched := tpcw.Concat(
		tpcw.Steady(wb.Mix, wb.Knee/2, 120),
		tpcw.Steady(wb.Mix, wb.Knee*2, 480),
		tpcw.Steady(wb.Mix, wb.Knee/2, 120),
	)
	srvCfg := lab.Server
	srvCfg.Seed = 777
	tb, err := server.NewTestbed(srvCfg, sched)
	if err != nil {
		t.Fatalf("testbed: %v", err)
	}
	p, err := serve.NewPipeline(mon, serve.Config{Window: lab.Scale.Window})
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	tb.SetAdmission(p.AdmissionValve("site", 8))

	machines := [server.NumTiers]server.MachineConfig{srvCfg.App.Machine, srvCfg.DB.Machine}
	var colls [server.NumTiers]metrics.Collector
	for tier := server.TierID(0); tier < server.NumTiers; tier++ {
		colls[tier] = cpu.NewCollector(tier, machines[tier], 0.02, srvCfg.Seed*10+int64(tier))
	}
	if err := tb.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	total := sched.Duration()
	for elapsed := 0.0; elapsed < total; elapsed++ {
		snap := tb.RunInterval(1)
		for tier := server.TierID(0); tier < server.NumTiers; tier++ {
			v := colls[tier].Collect(snap, 1)
			p.Ingest(serve.Sample{
				Site: "site", Tier: tier, Time: snap.Time,
				Values: append([]float64(nil), v...),
			})
		}
	}

	st, ok := p.SiteStats("site")
	if !ok {
		t.Fatal("site stats missing")
	}
	if st.Overloads == 0 {
		t.Error("burst at twice the knee never predicted overload")
	}
	arrivals, completions, rejections, inFlight := tb.Conservation()
	if rejections == 0 {
		t.Error("admission valve never shed load under predicted overload")
	}
	if arrivals != completions+rejections+inFlight {
		t.Errorf("conservation broken: %d arrivals vs %d+%d+%d", arrivals, completions, rejections, inFlight)
	}
}

// TestPipelineValidation pins the constructor's sentinel errors.
func TestPipelineValidation(t *testing.T) {
	_, mon, _ := fixture(t)
	if _, err := serve.NewPipeline(nil, serve.Config{}); !errors.Is(err, core.ErrBadConfig) {
		t.Errorf("nil monitor: got %v, want ErrBadConfig", err)
	}
	if _, err := serve.NewPipeline(&core.Monitor{}, serve.Config{}); !errors.Is(err, core.ErrUntrained) {
		t.Errorf("untrained monitor: got %v, want ErrUntrained", err)
	}
	if _, err := serve.NewPipeline(mon, serve.Config{Window: -1}); !errors.Is(err, core.ErrBadConfig) {
		t.Errorf("negative window: got %v, want ErrBadConfig", err)
	}
}

// TestSubscribeDelivery checks channel fan-out: a roomy subscriber sees
// every decision, an undersized one loses the overflow (counted), and a
// cancelled subscription stops receiving.
func TestSubscribeDelivery(t *testing.T) {
	_, mon, tr := fixture(t)
	p, err := serve.NewPipeline(mon, serve.Config{})
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	roomy, cancelRoomy := p.Subscribe(len(tr.Windows) + 1)
	tiny, cancelTiny := p.Subscribe(1)
	defer cancelTiny()
	replay(p, "a", tr)

	if got, want := len(roomy), len(tr.Windows); got != want {
		t.Errorf("roomy subscriber holds %d decisions, want %d", got, want)
	}
	if len(tiny) != 1 {
		t.Errorf("tiny subscriber holds %d decisions, want 1", len(tiny))
	}
	st, _ := p.SiteStats("a")
	if got, want := st.DecisionsDropped, uint64(len(tr.Windows)-1); got != want {
		t.Errorf("DecisionsDropped = %d, want %d", got, want)
	}
	first := <-roomy
	if first.Site != "a" || first.Seq != 1 {
		t.Errorf("first decision = site %q seq %d, want site a seq 1", first.Site, first.Seq)
	}

	cancelRoomy()
	drained := len(roomy)
	replay(p, "b", tr)
	if len(roomy) != drained {
		t.Errorf("cancelled subscriber still receiving (%d → %d buffered)", drained, len(roomy))
	}
}

// TestWriteMetrics spot-checks the Prometheus text rendering.
func TestWriteMetrics(t *testing.T) {
	lab, mon, tr := fixture(t)
	W := lab.Scale.Window
	p, err := serve.NewPipeline(mon, serve.Config{})
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	vecs := secondVectors(tr)
	for i := 0; i < W; i++ {
		for tier := server.TierID(0); tier < server.NumTiers; tier++ {
			p.Ingest(serve.Sample{Site: "shop", Tier: tier, Time: tr.SecTimes[i], Values: vecs[tier][i]})
		}
	}
	var buf bytes.Buffer
	if err := p.WriteMetrics(&buf); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE capserved_samples_ingested_total counter",
		fmt.Sprintf(`capserved_samples_ingested_total{site="shop"} %d`, W*int(server.NumTiers)),
		`capserved_windows_decided_total{site="shop"} 1`,
		"# TYPE capserved_prediction_max_seconds gauge",
		"# TYPE capserved_samples_skipped_total counter",
		`capserved_samples_skipped_total{site="shop",reason="nan"} 0`,
		`capserved_samples_skipped_total{site="shop",reason="late"} 0`,
		`capserved_samples_skipped_total{site="shop",reason="misshapen"} 0`,
		`capserved_samples_skipped_total{site="shop",reason="gap-reset"} 0`,
		`capserved_model_swaps_total{site="shop"} 0`,
		`capserved_model_version{site="shop"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q in:\n%s", want, out)
		}
	}
	// The autoscaling families are gated: absent until NoteScale reports a
	// replica count, then rendered with the configured pool labels.
	if strings.Contains(out, "capserved_pool_replicas") || strings.Contains(out, "capserved_autoscale_total") {
		t.Errorf("pool families rendered before any NoteScale:\n%s", out)
	}
	p.NoteScale("shop", server.TierApp, 3, true)
	p.NoteScale("shop", server.TierDB, 2, false)
	p.NoteScale("shop", server.TierID(99), 9, true) // out of range: ignored
	buf.Reset()
	if err := p.WriteMetrics(&buf); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	out = buf.String()
	for _, want := range []string{
		"# TYPE capserved_pool_replicas gauge",
		`capserved_pool_replicas{site="shop",pool="app"} 3`,
		`capserved_pool_replicas{site="shop",pool="db"} 2`,
		"# TYPE capserved_autoscale_total counter",
		`capserved_autoscale_total{site="shop",direction="up"} 1`,
		`capserved_autoscale_total{site="shop",direction="down"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q in:\n%s", want, out)
		}
	}
}

// TestSwapMonitorLossFree hot-swaps the model mid-window and asserts the
// swap drops nothing: the half-aggregated window survives the re-bind and
// is decided by the new model, the decision count matches a frozen replay,
// and decisions carry the model version active when they were made.
func TestSwapMonitorLossFree(t *testing.T) {
	_, mon, tr := fixture(t)
	var frozen []serve.Decision
	pf, err := serve.NewPipeline(mon, serve.Config{
		Window:     30,
		OnDecision: func(d serve.Decision) { frozen = append(frozen, d) },
	})
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	replay(pf, "s", tr)

	var swapped []serve.Decision
	var events []serve.SwapEvent
	p, err := serve.NewPipeline(mon, serve.Config{
		Window:     30,
		OnDecision: func(d serve.Decision) { swapped = append(swapped, d) },
		OnSwap:     func(ev serve.SwapEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	// Stream with a swap in the middle of window 2 (15 seconds in), so the
	// new session inherits a half-aggregated window.
	W := 30
	swapAt := W + W/2
	vecs := secondVectors(tr)
	for i, ts := range tr.SecTimes {
		if i == swapAt {
			if _, err := p.SwapMonitor("s", mon, 1); err != nil {
				t.Fatalf("SwapMonitor: %v", err)
			}
		}
		for tier := server.TierID(0); tier < server.NumTiers; tier++ {
			p.Ingest(serve.Sample{Site: "s", Tier: tier, Time: ts, Values: vecs[tier][i]})
		}
	}
	p.Flush()

	if len(swapped) != len(frozen) {
		t.Fatalf("swap replay decided %d windows, frozen %d — swap lost decisions", len(swapped), len(frozen))
	}
	if len(events) != 1 {
		t.Fatalf("OnSwap fired %d times, want 1: %+v", len(events), events)
	}
	ev := events[0]
	if ev.Site != "s" || ev.Version != 1 || ev.PrevVersion != 0 {
		t.Errorf("unexpected swap event %+v", ev)
	}
	for _, d := range swapped {
		want := int64(0)
		if d.Seq >= ev.Seq {
			want = 1
		}
		if d.ModelVersion != want {
			t.Errorf("window %d: ModelVersion %d, want %d (swap at %d)", d.Seq, d.ModelVersion, want, ev.Seq)
		}
		for tier := server.TierID(0); tier < server.NumTiers; tier++ {
			if len(d.Vectors[tier]) != len(vecs[tier][0]) {
				t.Fatalf("window %d tier %s: Vectors has %d metrics, want %d",
					d.Seq, tier, len(d.Vectors[tier]), len(vecs[tier][0]))
			}
		}
	}
	// Same model on both sides of the swap: every decision before the swap
	// window and after the temporal history re-converges matches frozen.
	for i, d := range swapped {
		if d.Seq < ev.Seq && !reflect.DeepEqual(d.Prediction, frozen[i].Prediction) {
			t.Errorf("pre-swap window %d diverged from frozen replay", d.Seq)
		}
	}
	st, _ := p.SiteStats("s")
	if st.ModelSwaps != 1 || st.ModelVersion != 1 || st.LastSwapSeq != ev.Seq {
		t.Errorf("swap counters: %+v", st)
	}
	if st.WindowsDecided != uint64(len(frozen)) || st.WindowsDropped != 0 {
		t.Errorf("swap replay decided=%d dropped=%d, want %d/0", st.WindowsDecided, st.WindowsDropped, len(frozen))
	}
}

// TestSwapMonitorRejectsUntrained pins the swap validation errors.
func TestSwapMonitorRejectsUntrained(t *testing.T) {
	_, mon, _ := fixture(t)
	p, err := serve.NewPipeline(mon, serve.Config{})
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	if _, err := p.SwapMonitor("s", nil, 1); !errors.Is(err, core.ErrUntrained) {
		t.Errorf("nil monitor: got %v, want ErrUntrained", err)
	}
	if _, err := p.SwapMonitor("s", &core.Monitor{}, 1); !errors.Is(err, core.ErrUntrained) {
		t.Errorf("untrained monitor: got %v, want ErrUntrained", err)
	}
	st, _ := p.SiteStats("s")
	if st.ModelSwaps != 0 || st.ModelVersion != 0 {
		t.Errorf("rejected swaps mutated counters: %+v", st)
	}
}

// TestValveReopensAfterSessionReset drives a site into predicted overload,
// then starves the stream past the staleness budget: the session reset must
// fail the admission valve open (a stale overload verdict must not keep
// shedding load) and the gap's absorbed samples must land on the gap-reset
// counter.
func TestValveReopensAfterSessionReset(t *testing.T) {
	lab, mon, tr := fixture(t)
	W := lab.Scale.Window
	p, err := serve.NewPipeline(mon, serve.Config{Window: W})
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	valve := p.AdmissionValve("s", 8)
	busy := server.AdmissionState{WaitQueue: 3, BoundWorkers: 12}
	if !valve(busy) {
		t.Fatal("valve closed before any decision")
	}

	// Replay until the first overload verdict.
	vecs := secondVectors(tr)
	fed := 0
	for i, ts := range tr.SecTimes {
		for tier := server.TierID(0); tier < server.NumTiers; tier++ {
			p.Ingest(serve.Sample{Site: "s", Tier: tier, Time: ts, Values: vecs[tier][i]})
		}
		fed = i + 1
		if p.Overloaded("s") {
			break
		}
	}
	if !p.Overloaded("s") {
		t.Fatal("trace never predicted overload; fixture unusable for this test")
	}
	if valve(busy) {
		t.Fatal("valve open under predicted overload with a busy pipeline")
	}

	// Feed part of the next window, then jump far past the staleness
	// budget: the partial window is dropped, the session reset, and the
	// valve must reopen even though no fresh decision has been made.
	partial := 5
	before, _ := p.SiteStats("s")
	for i := fed; i < fed+partial; i++ {
		for tier := server.TierID(0); tier < server.NumTiers; tier++ {
			p.Ingest(serve.Sample{Site: "s", Tier: tier, Time: tr.SecTimes[i], Values: vecs[tier][i]})
		}
	}
	skip := float64(10 * W)
	p.Ingest(serve.Sample{
		Site: "s", Tier: server.TierApp,
		Time:   tr.SecTimes[fed+partial-1] + skip,
		Values: vecs[server.TierApp][fed+partial],
	})

	if p.Overloaded("s") {
		t.Error("overload verdict survived the session reset")
	}
	if !valve(busy) {
		t.Error("valve still closed after the session reset")
	}
	st, _ := p.SiteStats("s")
	// The jump both drops the partial window (one reset) and skips whole
	// windows (a second reset on the same gap).
	if st.SessionResets != before.SessionResets+2 {
		t.Errorf("SessionResets = %d, want %d", st.SessionResets, before.SessionResets+2)
	}
	if got, want := st.SamplesGapReset-before.SamplesGapReset, uint64(partial*int(server.NumTiers)); got != want {
		t.Errorf("SamplesGapReset accounted %d samples, want %d (the dropped partial window)", got, want)
	}
	if st.WindowsDropped <= before.WindowsDropped {
		t.Error("gap did not count dropped windows")
	}
}

// TestConcurrentSitesIndependent streams the same trace into several sites
// from concurrent goroutines (with stats scraped throughout) and asserts
// every site independently reproduces the identical decision counters —
// the pipeline's per-site isolation under the race detector. Flush closes
// every site's open window, so it runs once, after the last producer.
func TestConcurrentSitesIndependent(t *testing.T) {
	_, mon, tr := fixture(t)
	p, err := serve.NewPipeline(mon, serve.Config{})
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	ch, cancel := p.Subscribe(16)
	defer cancel()
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-ch:
			case <-done:
				return
			}
		}
	}()
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				p.Stats()
				_ = p.Overloaded("a")
			}
		}
	}()

	sites := []string{"a", "b", "c"}
	var wg sync.WaitGroup
	for _, site := range sites {
		wg.Add(1)
		go func(site string) {
			defer wg.Done()
			stream(p, site, tr)
		}(site)
	}
	wg.Wait()
	p.Flush()
	close(done)

	all := p.Stats()
	if len(all) != len(sites) {
		t.Fatalf("Stats has %d sites, want %d", len(all), len(sites))
	}
	for i, st := range all {
		if st.Site != sites[i] {
			t.Errorf("Stats[%d].Site = %q, want %q (sorted)", i, st.Site, sites[i])
		}
		if got, want := st.WindowsDecided, uint64(len(tr.Windows)); got != want {
			t.Errorf("site %s decided %d windows, want %d", st.Site, got, want)
		}
		if st.Overloads != all[0].Overloads || st.GPVDisagreements != all[0].GPVDisagreements {
			t.Errorf("site %s diverged: %d overloads / %d disagreements vs %d / %d",
				st.Site, st.Overloads, st.GPVDisagreements, all[0].Overloads, all[0].GPVDisagreements)
		}
	}
}
