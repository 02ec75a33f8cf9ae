package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"hpcap/internal/core"
	"hpcap/internal/metrics"
	"hpcap/internal/ml/bayes"
	"hpcap/internal/serve"
	"hpcap/internal/server"
)

// TestRunQuick drives the daemon end to end at quick scale with HTTP off:
// train, simulate two sites, stream, decide, and print the summary.
func TestRunQuick(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-scale", "quick", "-sites", "2", "-duration", "180", "-admission", "8",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"training HPC monitor at quick scale",
		"site-1", "site-2",
		"windows=6", // 180 simulated seconds / 30-second windows
		"rejections=",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q in:\n%s", want, got)
		}
	}
}

// daemonRows are the flag sets the sharded daemon is held to: chaos with
// the admission valve closing the loop, fusion under a NaN storm, the tier
// DAG with the replica loop, and a lifecycle run too short to retrain.
var daemonRows = []struct {
	name string
	args []string
}{
	{"chaos-admission", []string{"-duration", "330", "-chaos", "outage tier=db at=90 for=45", "-admission", "8"}},
	{"fuse-nan", []string{"-duration", "240", "-fuse", "-chaos", "nan tier=app at=60 for=30 p=0.5"}},
	{"topology-autoscale", []string{"-duration", "420", "-topology", "-autoscale"}},
	{"adapt", []string{"-duration", "180", "-adapt"}},
}

// projectSites keeps every line that names a site — decision, health,
// autoscale and lifecycle lines plus the per-site summary lines — grouped
// by site in output order, with the wall-clock mean-predict token
// scrubbed. Cross-site interleaving is the only freedom sharding has, so
// the projection is what every serving front must reproduce byte for byte.
func projectSites(out string, sites int) string {
	bySite := make([][]string, sites)
	for _, line := range strings.Split(out, "\n") {
		if i := strings.Index(line, " mean-predict="); i >= 0 {
			if j := strings.Index(line[i+1:], " "); j >= 0 {
				line = line[:i] + line[i+1+j:]
			}
		}
		for k := range bySite {
			if strings.Contains(line, fmt.Sprintf("site-%d", k+1)) {
				bySite[k] = append(bySite[k], line)
			}
		}
	}
	var b strings.Builder
	for k, lines := range bySite {
		fmt.Fprintf(&b, "-- site-%d --\n", k+1)
		for _, l := range lines {
			b.WriteString(l + "\n")
		}
	}
	return b.String()
}

// checkShardTotals requires the shard totals line to account for every
// enqueued sample.
func checkShardTotals(t *testing.T, out string) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "shards   n=") {
			continue
		}
		var n int
		var enq, proc, batches, stalls, rejClosed, rejRef uint64
		if _, err := fmt.Sscanf(line, "shards   n=%d enqueued=%d processed=%d batches=%d stalls=%d rejected-closed=%d rejected-ref=%d",
			&n, &enq, &proc, &batches, &stalls, &rejClosed, &rejRef); err != nil {
			t.Fatalf("unparsable shard totals %q: %v", line, err)
		}
		if enq == 0 || proc != enq || rejClosed != 0 || rejRef != 0 {
			t.Errorf("shard totals lost samples: %s", line)
		}
		return
	}
	t.Errorf("summary missing shard totals line in:\n%s", out)
}

// TestRunSharded runs each seeded flag row through the daemon at 1 shard,
// 4 shards and the default, and requires every site's projected lines to
// match testdata/daemon_sites.golden — frozen from the inline pipeline the
// daemon once also served through, and never regenerated.
func TestRunSharded(t *testing.T) {
	const sites = 3
	fixture, err := os.ReadFile("testdata/daemon_sites.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []string{"1", "4", "0"} {
		var got strings.Builder
		for _, row := range daemonRows {
			args := append([]string{"-scale", "quick", "-sites", fmt.Sprint(sites), "-seed", "7", "-shards", shards}, row.args...)
			var out strings.Builder
			if err := run(args, &out); err != nil {
				t.Fatalf("%s shards=%s: %v", row.name, shards, err)
			}
			fmt.Fprintf(&got, "== %s ==\n%s", row.name, projectSites(out.String(), sites))
			checkShardTotals(t, out.String())
		}
		if got.String() != string(fixture) {
			t.Errorf("shards=%s diverged from the fixture\n--- want ---\n%s--- got ---\n%s", shards, fixture, got.String())
		}
	}
}

// TestLifecycleAccounting runs the adapt row, clean and under a 40-s
// collector stall, at 1 and 4 shards: every decision must find its truth,
// and the summary's lifecycle line must account for every decided window
// as labeled, unlabeled or guarded.
func TestLifecycleAccounting(t *testing.T) {
	var adapt []string
	for _, row := range daemonRows {
		if row.name == "adapt" {
			adapt = row.args
		}
	}
	stall := []string{"-duration", "300", "-adapt", "-chaos", "stall tier=app at=120 for=40"}
	for _, shards := range []string{"1", "4"} {
		for _, rowArgs := range [][]string{adapt, stall} {
			args := append([]string{"-scale", "quick", "-sites", "3", "-seed", "7", "-shards", shards}, rowArgs...)
			var out strings.Builder
			if err := run(args, &out); err != nil {
				t.Fatalf("%v: %v", args, err)
			}
			windows, found := 0, false
			var labeled, unlabeled, guarded int
			for _, line := range strings.Split(out.String(), "\n") {
				var site string
				var n int
				if _, err := fmt.Sscanf(line, "%s windows=%d ", &site, &n); err == nil {
					windows += n
				}
				if _, err := fmt.Sscanf(line, "lifecycle labeled=%d unlabeled=%d guarded=%d",
					&labeled, &unlabeled, &guarded); err == nil {
					found = true
				}
			}
			if !found {
				t.Fatalf("%v: summary missing lifecycle line in:\n%s", args, out.String())
			}
			if unlabeled != 0 {
				t.Errorf("%v: %d decisions found no truth", args, unlabeled)
			}
			if windows == 0 || labeled+unlabeled+guarded != windows {
				t.Errorf("%v: labeled=%d + unlabeled=%d + guarded=%d, want the %d decided windows",
					args, labeled, unlabeled, guarded, windows)
			}
		}
	}
}

// TestHTTPEndpoints binds a loopback port and probes /healthz and
// /metrics after a short run.
func TestHTTPEndpoints(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("free port: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var out strings.Builder
	if err := run([]string{
		"-scale", "quick", "-sites", "1", "-duration", "60", "-addr", addr,
	}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	for path, want := range map[string]string{
		"/healthz":    "ok",
		"/readyz":     `"ready":true`,
		"/models":     "{}", // adaptive lifecycle off: no version history
		"/metrics":    `capserved_windows_decided_total{site="site-1"} 2`,
		"/debug/vars": `"capserved"`,
	} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), want) {
			t.Errorf("GET %s: missing %q in:\n%s", path, want, body)
		}
	}
}

// newTestPipeline trains a throwaway monitor on a tiny synthetic trace —
// endpoint tests need a live pipeline, not a good model.
func newTestPipeline(t *testing.T) *serve.ShardedPipeline {
	t.Helper()
	names := []string{"m_load", "m_noise"}
	set := core.TrainingSet{Workload: "unit"}
	for i := 0; i < 24; i++ {
		overload := 0
		load := 0.2 + 0.01*float64(i%8)
		if (i/8)%2 == 1 {
			overload = 1
			load += 0.6
		}
		var vecs [server.NumTiers][]float64
		for tier := server.TierID(0); tier < server.NumTiers; tier++ {
			vecs[tier] = []float64{load, 0.5}
		}
		set.Windows = append(set.Windows, core.LabeledWindow{
			Observation: core.Observation{Time: float64((i + 1) * 30), Vectors: vecs},
			Overload:    overload,
		})
	}
	mon, err := core.Train(metrics.LevelHPC, names, []core.TrainingSet{set}, core.Config{
		Learner: bayes.TANLearner(),
		Seed:    1,
	})
	if err != nil {
		t.Fatalf("train synthetic monitor: %v", err)
	}
	pipe, err := serve.NewShardedPipeline(mon, serve.Config{Window: 30}, serve.ShardConfig{Shards: 1})
	if err != nil {
		t.Fatalf("build pipeline: %v", err)
	}
	t.Cleanup(pipe.Close)
	return pipe
}

// TestReadyzLifecycle pins the readiness protocol against the states a
// run moves through, without running a simulation: 503 while the monitor
// is still training, 503 once the pipeline exists but a site has not yet
// produced a decision, distinct from the always-200 liveness probe.
func TestReadyzLifecycle(t *testing.T) {
	st := &daemonState{}
	srv := httptest.NewServer(newMux(st, false))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "training monitor") {
		t.Errorf("/readyz before training: status %d body %q, want 503 training", code, body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz before training: status %d, want 200 (liveness is not readiness)", code)
	}
	if code, _ := get("/metrics"); code != http.StatusServiceUnavailable {
		t.Errorf("/metrics before training: status %d, want 503", code)
	}

	// Pipeline up, fleet named, but no site has decided a window yet.
	pipe := newTestPipeline(t)
	st.update(func(v *daemonView) { v.pipe, v.sites = pipe, []string{"site-1"} })
	code, body = get("/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "awaiting first decision") {
		t.Errorf("/readyz before first decision: status %d body %q, want 503 awaiting", code, body)
	}
	var rep readinessReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/readyz body is not JSON: %v\n%s", err, body)
	}
	if len(rep.Sites) != 1 || rep.Sites[0].Site != "site-1" || rep.Sites[0].Ready {
		t.Errorf("per-site report = %+v, want one not-ready site-1", rep.Sites)
	}
}

// TestAdaptiveRun drives -adapt end to end on a short stream: the manager
// registers the initial model for every site (visible in the summary and
// at /models) and /readyz reports the fleet ready with version 0 active.
// The stream is far too short for a retrain — the lifecycle's conservative
// daemon defaults need tens of labeled windows — so exactly one version
// per site must exist.
func TestAdaptiveRun(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("free port: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var out strings.Builder
	if err := run([]string{
		"-scale", "quick", "-sites", "2", "-duration", "120", "-adapt", "-addr", addr,
	}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"site-1   model v0 reason=initial windows=0 swapped=true",
		"site-2   model v0 reason=initial windows=0 swapped=true",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q in:\n%s", want, got)
		}
	}

	for path, want := range map[string]string{
		"/readyz": `"ready":true`,
		"/models": `"reason":"initial"`,
	} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d\n%s", path, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), want) {
			t.Errorf("GET %s: missing %q in:\n%s", path, want, body)
		}
	}
}

// TestFuseRun drives -fuse end to end under a NaN fault storm: the fusion
// stage must actually process samples (visible in the per-site fusion
// summary line), the fuse metric families must appear on /metrics, and
// /readyz must carry each site's fusion confidence.
func TestFuseRun(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("free port: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var out strings.Builder
	if err := run([]string{
		"-scale", "quick", "-sites", "2", "-duration", "180", "-fuse", "-addr", addr,
		"-chaos", "nan tier=app at=60 for=30 p=0.5",
	}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "fusion fused=") {
		t.Errorf("output missing the fusion summary line in:\n%s", got)
	}
	for _, line := range strings.Split(got, "\n") {
		if !strings.Contains(line, "fusion fused=") {
			continue
		}
		var fused, imputed, gated, lowconf uint64
		var conf float64
		var site string
		if _, err := fmt.Sscanf(line, "%s fusion fused=%d imputed=%d gated=%d lowconf=%d confidence=%f",
			&site, &fused, &imputed, &gated, &lowconf, &conf); err != nil {
			t.Fatalf("unparsable fusion summary %q: %v", line, err)
		}
		if fused == 0 || imputed == 0 {
			t.Errorf("fusion saw no faulted samples: %s", line)
		}
	}

	for path, wants := range map[string][]string{
		"/metrics": {"capserved_fuse_samples_total", "capserved_fuse_imputed_total", "capserved_fuse_confidence"},
		"/readyz":  {`"fusion"`, `"confidence"`},
	} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		for _, want := range wants {
			if !strings.Contains(string(body), want) {
				t.Errorf("GET %s: missing %q in:\n%s", path, want, body)
			}
		}
	}
}

// TestTopologyAutoscaleRun drives -topology -autoscale end to end: the
// fleet runs on the reference tier DAG with every pool at its minimum,
// the bursting site overloads, the autoscaler grows its bottleneck pool
// (printed as scale events and counted in the per-site summary), and the
// pool-replica gauge appears on /metrics.
func TestTopologyAutoscaleRun(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("free port: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var out strings.Builder
	if err := run([]string{
		"-scale", "quick", "-sites", "2", "-duration", "420",
		"-topology", "-autoscale", "-addr", addr,
	}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"autoscale: scale site=", "dir=up",
		"autoscale ups=", "replicas: app=",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q in:\n%s", want, got)
		}
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	for _, want := range []string{"capserved_pool_replicas{", "capserved_autoscale_total{"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestPprofMountOptIn pins that the runtime profiler is served only when
// asked for: /debug/pprof/ answers on a -pprof mux and 404s otherwise.
func TestPprofMountOptIn(t *testing.T) {
	st := &daemonState{}
	withProf := httptest.NewServer(newMux(st, true))
	defer withProf.Close()
	without := httptest.NewServer(newMux(st, false))
	defer without.Close()

	get := func(base string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if code, body := get(withProf.URL); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("-pprof mux /debug/pprof/: status %d body %q, want 200 with profile index", code, body)
	}
	if code, _ := get(without.URL); code != http.StatusNotFound {
		t.Errorf("default mux /debug/pprof/: status %d, want 404", code)
	}
}

// TestBadFlags pins the error paths, and that one invocation reports
// every violation rather than the first.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "medium"},
		{"-level", "gpu"},
		{"-sites", "0"},
		{"-shards", "-1"},
		{"-chaos", "bogus"},
		{"-pprof"},                          // profiling needs the HTTP mux (-addr)
		{"-hold"},                           // nothing to hold without the HTTP mux (-addr)
		{"-autoscale"},                      // the replica loop needs the DAG testbed (-topology)
		{"-wal", "frames.wal"},              // the log records network frames (-listen)
		{"-topology", "-listen", "0:bogus"}, // topology sites are local-simulation only
		{"-duration", "Inf"},                // would stream until killed
		{"-duration", "NaN"},                // would train, stream nothing and exit 0
		{"-duration", "-5"},
		{"-duration", "0"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
	// Network ingest streams no simulated seconds, so -duration is not its
	// business there.
	if _, err := parseConfig([]string{"-listen", "127.0.0.1:0", "-duration", "0"}); err != nil {
		t.Errorf("-duration 0 with -listen: %v", err)
	}
	err := run([]string{"-scale", "medium", "-sites", "0", "-hold"}, io.Discard)
	for _, want := range []string{`unknown scale "medium"`, "need at least one site", "-hold requires -addr"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("three violations: error %v missing %q", err, want)
		}
	}
}

// TestTruthTrackerDiscardsDroppedWindows feeds the tracker twelve
// one-second windows and takes them with gaps in seq, as a pipeline that
// drops windows does: the truth of a window that never gets a decision
// must not stay behind.
func TestTruthTrackerDiscardsDroppedWindows(t *testing.T) {
	tk, err := newTruthTracker(1)
	if err != nil {
		t.Fatal(err)
	}
	for seq := int64(0); seq < 12; seq++ {
		tk.observe(server.Snapshot{Time: float64(seq + 1)})
		if seq%3 == 1 {
			continue // dropped: no decision, so no take
		}
		if _, ok := tk.take(seq); !ok {
			t.Errorf("take(%d): no truth", seq)
		}
		if n := len(tk.ready); n > 1 {
			t.Fatalf("after take(%d): %d windows still held", seq, n)
		}
	}
}
