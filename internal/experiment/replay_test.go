package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpcap/internal/tpcw"
)

// replayRow is one cell of the front matrix: the training fan-out and the
// serving front a scenario runs at.
type replayRow struct {
	name    string
	workers int
	front   front
}

var (
	inlineRows  = []replayRow{{"inline-w1", 1, front{}}, {"inline-w8", 8, front{}}}
	shardedRows = []replayRow{{"shards-1", 8, front{shards: 1}}, {"shards-4", 8, front{shards: 4}}}
	loopbackRow = replayRow{"loopback", 8, front{shards: 2, loopback: true}}
)

// replayScenario is one golden-pinned replay: how to run it at a front,
// with the scenario's own inequalities checked on the result, returning
// the transcript. The golden is testdata/<name>_replay.golden.
type replayScenario struct {
	name     string
	loopback bool
	run      func(t *testing.T, l *Lab, workers int, f front) string
}

var replayScenarios = []replayScenario{
	{name: "drift", run: runDriftScenario},
	{name: "chaos", run: runChaosScenario},
	{name: "fusion", loopback: true, run: runFusionScenario},
	{name: "autoscale", run: runAutoscaleScenario},
}

// runDriftScenario: the scripted browsing→ordering shift triggers drift
// detection, a retrain and exactly one loss-free hot-swap that beats the
// frozen incumbent, and every decision is delivered in window order (the
// k-th transcript window is seq k), so scoring by delivery position and
// by Seq agree on this trace. The sharded rows hot-swap through a
// quiesced shard lane.
func runDriftScenario(t *testing.T, l *Lab, workers int, f front) string {
	res, err := l.runDriftReplay(workers, f)
	if err != nil {
		t.Fatalf("drift replay: %v", err)
	}
	if res.Swaps != 1 {
		t.Errorf("replay hot-swapped %d times, want exactly 1", res.Swaps)
	}
	if res.Windows != res.FrozenWindows {
		t.Errorf("adaptive replay decided %d windows, frozen %d — the swap lost decisions",
			res.Windows, res.FrozenWindows)
	}
	if res.PostSwapWindows == 0 || res.AdaptiveHits <= res.FrozenHits {
		t.Errorf("post-swap accuracy %d/%d did not beat the frozen incumbent's %d/%d",
			res.AdaptiveHits, res.PostSwapWindows, res.FrozenHits, res.PostSwapWindows)
	}
	if !strings.Contains(res.Log, "swapped=true") || !strings.Contains(res.Log, "drift site=") {
		t.Error("transcript lacks a drift event or a swapped retrain")
	}
	k := 0
	for _, ln := range strings.Split(res.Log, "\n") {
		if strings.HasPrefix(ln, "window seq=") {
			k++
			if !strings.HasPrefix(ln, fmt.Sprintf("window seq=%d ", k)) {
				t.Fatalf("delivered window %d is %q: decisions are not dense in Seq", k, ln)
			}
		}
	}
	return res.Log
}

// runChaosScenario: the storm walks the ladder off healthy and back, the
// guard keeps corrupted windows out of the lifecycle, nothing retrains,
// and the decisions re-converge with the fault-free baseline.
func runChaosScenario(t *testing.T, l *Lab, workers int, f front) string {
	res, err := l.runChaosReplay(workers, f)
	if err != nil {
		t.Fatalf("chaos replay: %v", err)
	}
	if res.Injected == 0 {
		t.Error("the storm injected no faults")
	}
	if res.Windows >= res.BaselineWindows {
		t.Errorf("chaos replay decided %d windows, baseline %d — the outage dropped none",
			res.Windows, res.BaselineWindows)
	}
	if res.Transitions < 2 || !strings.Contains(res.Log, "health healthy->") || !strings.Contains(res.Log, "->healthy") {
		t.Errorf("degradation ladder moved %d times, want at least off-healthy and back", res.Transitions)
	}
	if res.Guarded == 0 {
		t.Error("lifecycle guard caught no degraded decisions")
	}
	if res.ReconvergeSeq < 0 {
		t.Error("chaos decisions never re-converged with the fault-free baseline")
	}
	if strings.Contains(res.Log, "retrain site=") {
		t.Error("a fault-corrupted run retrained — the lifecycle guard failed")
	}
	return res.Log
}

// runFusionScenario: fusion strictly beats the raw run on windowed error
// and on drift false fires, the clean baseline never fires, and the
// low-confidence flag routes the stuck stretch into the retrain guard.
func runFusionScenario(t *testing.T, l *Lab, workers int, f front) string {
	res, err := l.runFusionReplay(workers, f)
	if err != nil {
		t.Fatalf("fusion replay: %v", err)
	}
	if res.BaselineDrift != 0 {
		t.Errorf("clean baseline fired %d drift signals, want 0", res.BaselineDrift)
	}
	if res.RawDrift == 0 || res.FusedDrift >= res.RawDrift {
		t.Errorf("fusion did not reduce drift false fires: raw %d, fused %d", res.RawDrift, res.FusedDrift)
	}
	if res.FusedErr >= res.RawErr {
		t.Errorf("fusion did not reduce windowed decision error: raw %.6f, fused %.6f", res.RawErr, res.FusedErr)
	}
	if res.LowConfidence == 0 || res.FusedGuarded == 0 {
		t.Errorf("low confidence never reached the guard: lowconf=%d guarded=%d", res.LowConfidence, res.FusedGuarded)
	}
	if res.FusedWindows < res.RawWindows {
		t.Errorf("fusion decided fewer windows (%d) than the raw run (%d)", res.FusedWindows, res.RawWindows)
	}
	if strings.Contains(res.Log, "retrain site=") {
		t.Error("a storm run retrained — the lifecycle guard failed")
	}
	return res.Log
}

// runAutoscaleScenario: the flash crowd scales up, the recovery tail
// scales down, and scaling serves strictly more than shedding.
func runAutoscaleScenario(t *testing.T, l *Lab, workers int, f front) string {
	res, err := l.runAutoscaleReplay(workers, f)
	if err != nil {
		t.Fatalf("autoscale replay: %v", err)
	}
	if res.Ups == 0 || res.Downs == 0 || !strings.Contains(res.Log, "dir=up") || !strings.Contains(res.Log, "dir=down") {
		t.Errorf("want scale events in both directions: ups=%d downs=%d", res.Ups, res.Downs)
	}
	if res.AutoscaleServed <= res.AdmissionServed {
		t.Errorf("autoscaling served %d requests, admission-only %d — scaling must win strictly",
			res.AutoscaleServed, res.AdmissionServed)
	}
	return res.Log
}

// testReplay runs one scenario at each row on one shared lab and holds
// every transcript to the scenario's golden.
func testReplay(t *testing.T, name string, rows []replayRow) {
	if testing.Short() {
		t.Skip("full serving replays; skipped in -short")
	}
	var sc replayScenario
	for _, s := range replayScenarios {
		if s.name == name {
			sc = s
		}
	}
	l := NewLab(QuickScale())
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			checkGolden(t, sc.name+"_replay", sc.run(t, l, row.workers, row.front))
		})
	}
}

// TestReplay holds every replay golden at every serving front: inline at
// one and eight training workers, one and four shards, and — for the
// per-scrape fusion stream — the agent wire loopback. Batching, deferral,
// routing and transport may never change a byte of any transcript.
// Regenerate a fixture (only for an intended behavioural change) with
//
//	go test ./internal/experiment -run 'TestReplay/chaos/inline-w1' -update
func TestReplay(t *testing.T) {
	for _, sc := range replayScenarios {
		rows := append(append([]replayRow(nil), inlineRows...), shardedRows...)
		if sc.loopback {
			rows = append(rows, loopbackRow)
		}
		t.Run(sc.name, func(t *testing.T) { testReplay(t, sc.name, rows) })
	}
}

// The determinism gate's view of the replays: one scenario each,
// sequential vs Workers=8 training, both on the committed golden.
func TestDeterminismDriftReplay(t *testing.T)     { testReplay(t, "drift", inlineRows) }
func TestDeterminismChaosReplay(t *testing.T)     { testReplay(t, "chaos", inlineRows) }
func TestDeterminismFusionReplay(t *testing.T)    { testReplay(t, "fusion", inlineRows) }
func TestDeterminismAutoscaleReplay(t *testing.T) { testReplay(t, "autoscale", inlineRows) }

// TestReplaySeeds holds the replay trace seeds apart from each other and
// from every seed the lab derives: the synopsis seeds (0, 1), the training
// traces (one per mix name length), the test traces (100 + kind length),
// the interleaved test (104) and Fig. 3 (55).
func TestReplaySeeds(t *testing.T) {
	used := map[int64]string{0: "synopsis", 1: "retrain synopsis", 104: "interleaved test", 55: "fig3"}
	for _, m := range []tpcw.Mix{tpcw.Browsing(), tpcw.Ordering(), tpcw.Unknown()} {
		used[int64(len(m.Name))] = "training " + m.Name
	}
	for _, k := range TestKinds() {
		if k != TestInterleaved {
			used[100+int64(len(k))] = "test " + string(k)
		}
	}
	for _, s := range []struct {
		name string
		seed int64
	}{
		{"drift", driftReplaySeed}, {"chaos", chaosReplaySeed},
		{"fusion", fusionReplaySeed}, {"autoscale", autoscaleReplaySeed},
	} {
		if other, ok := used[s.seed]; ok {
			t.Errorf("%s replay seed %d collides with the %s seed", s.name, s.seed, other)
		}
		used[s.seed] = s.name + " replay"
	}
}

// checkGolden compares got with testdata/<name>.golden, or rewrites the
// fixture under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden fixture (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Fatalf("output diverged from %s (run with -update if the change is intended)\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
