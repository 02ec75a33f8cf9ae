package server

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hpcap/internal/tpcw"
)

var update = flag.Bool("update", false, "rewrite testdata/two_tier_snapshots.golden")

// twoTierCase is one cell of the two-tier differential: a seed, a load
// schedule, and whether an admission controller and the collectors'
// periodic CPU cost are installed.
type twoTierCase struct {
	name      string
	seed      int64
	sched     tpcw.Schedule
	admission bool
	periodic  bool
}

// swingSchedule grows the population past both tiers' knees, retires most
// of it while retargeting the survivors' mix, respawns under a shorter
// think time and retires again — 100 seconds that exercise every branch
// of applyPhase and push the admission controller into rejecting.
func swingSchedule(mix tpcw.Mix) tpcw.Schedule {
	return tpcw.Concat(
		tpcw.Steady(mix, 120, 20),
		tpcw.Ramp(mix, 200, 700, 4, 8),
		tpcw.Steady(tpcw.Shopping(), 150, 16),
		tpcw.Schedule{Phases: []tpcw.Phase{{Mix: mix, EBs: 400, Duration: 16, ThinkScale: 0.5}}},
		tpcw.Steady(mix, 60, 16),
	)
}

// burstCycles is simsite's cruise/burst/recover rotation compressed to 14
// seconds and repeated 40 times: most of the population is retired and
// respawned every cycle, with retirees' think timers still pending.
func burstCycles() tpcw.Schedule {
	cycle := tpcw.Concat(
		tpcw.Steady(tpcw.Shopping(), 70, 6),
		tpcw.Steady(tpcw.Shopping(), 145, 5),
		tpcw.Steady(tpcw.Shopping(), 55, 3),
	)
	sched := cycle
	for i := 1; i < 40; i++ {
		sched = tpcw.Concat(sched, cycle)
	}
	return sched
}

// fixtureCases is the set frozen in testdata/two_tier_snapshots.golden:
// seed 1 × {browsing, shopping, ordering} × {admission off, on} ×
// {periodic load off, on} over swingSchedule, plus the burst-cycle run.
func fixtureCases() []twoTierCase {
	onOff := map[bool]string{false: "off", true: "on"}
	var cases []twoTierCase
	for _, mix := range []tpcw.Mix{tpcw.Browsing(), tpcw.Shopping(), tpcw.Ordering()} {
		for _, admission := range []bool{false, true} {
			for _, periodic := range []bool{false, true} {
				cases = append(cases, twoTierCase{
					name: fmt.Sprintf("swing seed=1 mix=%s admission=%s periodic=%s",
						mix.Name, onOff[admission], onOff[periodic]),
					seed: 1, sched: swingSchedule(mix), admission: admission, periodic: periodic,
				})
			}
		}
	}
	return append(cases, twoTierCase{name: "burst-cycles seed=7", seed: 7, sched: burstCycles()})
}

// The collectors' per-second CPU cost (metrics.HPCSampleCost +
// metrics.OSSampleCost; metrics imports this package).
const collectCost = 0.02

func admitShortQueue(s AdmissionState) bool { return s.WaitQueue < 60 }

// start builds and starts the case's site: through NewTestbed with slots
// addressed by TierID, or (viaDAG) through NewDAGTestbed over
// TwoTierTopology with pools addressed by name.
func (c twoTierCase) start(t *testing.T, viaDAG bool) *Testbed {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = c.seed
	var tb *Testbed
	if viaDAG {
		dag, err := NewDAGTestbed(TwoTierTopology(cfg), c.sched)
		if err != nil {
			t.Fatal(err)
		}
		if c.periodic {
			dag.AddPeriodicLoad("app", 1, collectCost)
			dag.AddPeriodicLoad("db", 1, collectCost)
		}
		tb = dag.TwoSlot()
	} else {
		var err error
		if tb, err = NewTestbed(cfg, c.sched); err != nil {
			t.Fatal(err)
		}
		if c.periodic {
			tb.AddPeriodicLoad(TierApp, 1, collectCost)
			tb.AddPeriodicLoad(TierDB, 1, collectCost)
		}
	}
	if c.admission {
		tb.SetAdmission(admitShortQueue)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	return tb
}

// digest runs the case to the end of its schedule and returns its fixture
// section: one line per second — the request flows in clear and an FNV-64a
// hash of the whole snapshot (%+v prints every float64 in its shortest
// round-trip form, so equal hashes mean bit-equal snapshots) — then the
// lifetime conservation totals. On the way it checks that the simulator
// holds no more browsers than the schedule ever asks for: the retired
// leave it. each, if not nil, runs before every second with the index of
// the second about to be simulated.
func (c twoTierCase) digest(t *testing.T, tb *Testbed, each func(sec int)) string {
	t.Helper()
	peak := 0
	for _, p := range c.sched.Phases {
		if p.EBs > peak {
			peak = p.EBs
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "case %s\n", c.name)
	for sec := 0; sec < int(c.sched.Duration()); sec++ {
		if each != nil {
			each(sec)
		}
		s := tb.RunInterval(1)
		h := fnv.New64a()
		fmt.Fprintf(h, "%+v", s)
		fmt.Fprintf(&b, "%g arr=%d comp=%d rej=%d ebs=%d %016x\n",
			s.Time, s.Arrivals, s.Completions, s.Rejections, s.ActiveEBs, h.Sum64())
		if n := len(tb.dag.browsers); n > peak {
			t.Fatalf("%s second %d: simulator holds %d browsers, schedule peaks at %d", c.name, sec, n, peak)
		}
	}
	arr, comp, rej, inFlight := tb.Conservation()
	fmt.Fprintf(&b, "conservation arr=%d comp=%d rej=%d inflight=%d\n", arr, comp, rej, inFlight)
	return b.String()
}

// firstDiff names the first line at which two digests part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("length: got %d lines, want %d", len(g), len(w))
}

// TestDAGSnapshotEquivalence pins the simulator's two-tier snapshot
// stream, bit for bit, through population growth and retirement,
// admission rejections and periodic collector load. The fixture was
// written by the legacy two-tier testbed in the commit before it was
// deleted (241/241 cases of the then-differential byte-identical); both
// ways of building the two-tier site — NewTestbed and NewDAGTestbed over
// TwoTierTopology — must still reproduce it.
func TestDAGSnapshotEquivalence(t *testing.T) {
	var fresh strings.Builder
	for _, c := range fixtureCases() {
		want := c.digest(t, c.start(t, false), nil)
		if got := c.digest(t, c.start(t, true), nil); got != want {
			t.Errorf("%s: NewDAGTestbed(TwoTierTopology) diverged from NewTestbed at %s",
				c.name, firstDiff(got, want))
		}
		fresh.WriteString(want)
	}
	path := filepath.Join("testdata", "two_tier_snapshots.golden")
	if *update {
		if err := os.WriteFile(path, []byte(fresh.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read fixture (run with -update to create): %v", err)
	}
	if fresh.String() != string(golden) {
		t.Errorf("snapshot stream diverged from %s at %s", path, firstDiff(fresh.String(), string(golden)))
	}
}

func TestDAGRejectsBadInput(t *testing.T) {
	bad := DefaultTopologyConfig()
	bad.Entry = "ghost"
	if _, err := NewDAGTestbed(bad, tpcw.Steady(tpcw.Browsing(), 10, 100)); err == nil {
		t.Error("invalid topology not rejected")
	}
	if _, err := NewDAGTestbed(DefaultTopologyConfig(), tpcw.Schedule{}); err == nil {
		t.Error("empty schedule not rejected")
	}
	tb, err := NewDAGTestbed(DefaultTopologyConfig(), tpcw.Steady(tpcw.Browsing(), 10, 100))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err == nil {
		t.Error("second Start not rejected")
	}
}

func TestDAGConservation(t *testing.T) {
	tb, err := NewDAGTestbed(DefaultTopologyConfig(), tpcw.Steady(tpcw.Shopping(), 300, 60))
	if err != nil {
		t.Fatal(err)
	}
	tb.SetAdmission(func(s AdmissionState) bool { return s.WaitQueue < 30 })
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		tb.RunInterval(1)
	}
	arr, comp, rej, inflight := tb.Conservation()
	if arr != comp+rej+inflight {
		t.Errorf("conservation violated: %d arrivals != %d completions + %d rejections + %d in flight",
			arr, comp, rej, inflight)
	}
	if comp == 0 {
		t.Error("no completions")
	}
}

func TestDAGDeterminism(t *testing.T) {
	run := func() []DAGSnapshot {
		tb, err := NewDAGTestbed(DefaultTopologyConfig(), tpcw.Steady(tpcw.Browsing(), 150, 30))
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.Start(); err != nil {
			t.Fatal(err)
		}
		var out []DAGSnapshot
		for i := 0; i < 30; i++ {
			out = append(out, tb.RunInterval(1))
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("identical DAG runs diverged")
	}
}

func TestAddRemoveReplica(t *testing.T) {
	topo := DefaultTopologyConfig() // app 2 of [1,6], cache 1 of [1,2], db 2 of [1,4]
	tb, err := NewDAGTestbed(topo, tpcw.Steady(tpcw.Shopping(), 200, 120))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	tb.RunInterval(5)

	if n := tb.Replicas("app"); n != 2 {
		t.Fatalf("app starts with %d replicas, want 2", n)
	}
	if n, ok := tb.AddReplica("app"); !ok || n != 3 {
		t.Fatalf("AddReplica(app) = (%d,%v), want (3,true)", n, ok)
	}
	// Cache is at MaxReplicas 2 after one add; the next add refuses.
	if n, ok := tb.AddReplica("cache"); !ok || n != 2 {
		t.Fatalf("AddReplica(cache) = (%d,%v), want (2,true)", n, ok)
	}
	if _, ok := tb.AddReplica("cache"); ok {
		t.Error("AddReplica above MaxReplicas not refused")
	}
	// Unknown pools refuse.
	if _, ok := tb.AddReplica("ghost"); ok {
		t.Error("AddReplica(ghost) not refused")
	}
	if _, ok := tb.RemoveReplica("ghost"); ok {
		t.Error("RemoveReplica(ghost) not refused")
	}

	tb.RunInterval(5)
	if n, ok := tb.RemoveReplica("app"); !ok || n != 2 {
		t.Fatalf("RemoveReplica(app) = (%d,%v), want (2,true)", n, ok)
	}
	// The drained replica stays in the snapshot, flagged, until revived.
	s := tb.RunInterval(5)
	var appSnap PoolSnapshot
	for _, ps := range s.Pools {
		if ps.Pool == "app" {
			appSnap = ps
		}
	}
	if len(appSnap.Replicas) != 3 || appSnap.Active != 2 {
		t.Fatalf("app snapshot has %d replicas (%d active), want 3 (2 active)",
			len(appSnap.Replicas), appSnap.Active)
	}
	drained := 0
	for _, d := range appSnap.Draining {
		if d {
			drained++
		}
	}
	if drained != 1 {
		t.Fatalf("app snapshot flags %d draining replicas, want 1", drained)
	}
	if appSnap.Capacity != 2*topo.Pools[0].Tier.Machine.Speed {
		t.Errorf("drained replica still counted in capacity: %v", appSnap.Capacity)
	}

	// Scaling down to MinReplicas stops; reviving reuses the drained
	// machine rather than growing the slice.
	if n, ok := tb.RemoveReplica("app"); !ok || n != 1 {
		t.Fatalf("RemoveReplica(app) = (%d,%v), want (1,true)", n, ok)
	}
	if _, ok := tb.RemoveReplica("app"); ok {
		t.Error("RemoveReplica below MinReplicas not refused")
	}
	if n, ok := tb.AddReplica("app"); !ok || n != 2 {
		t.Fatalf("revive AddReplica(app) = (%d,%v), want (2,true)", n, ok)
	}
	s = tb.RunInterval(5)
	for _, ps := range s.Pools {
		if ps.Pool == "app" && len(ps.Replicas) != 3 {
			t.Errorf("revive grew the replica slice to %d, want reuse at 3", len(ps.Replicas))
		}
	}
	ups, downs := tb.ScaleEvents()
	if ups != 3 || downs != 2 {
		t.Errorf("scale events = (%d up, %d down), want (3, 2)", ups, downs)
	}
	arr, comp, rej, inflight := tb.Conservation()
	if arr != comp+rej+inflight {
		t.Errorf("conservation violated across scaling: %d != %d+%d+%d", arr, comp, rej, inflight)
	}
}

// meanMixDemand returns the mix-weighted mean profile demand: app demand
// for front pools, DB demand otherwise.
func meanMixDemand(mix tpcw.Mix, front bool) float64 {
	profiles := tpcw.DefaultProfiles()
	var sum float64
	for _, it := range tpcw.Interactions() {
		p := profiles[it]
		d := p.DBDemand
		if front {
			d = p.AppDemand
		}
		sum += mix.Weights[it] * d
	}
	return sum
}

// TestBottleneckPoolProperty checks the bottleneck-pool rule on seeded
// random chain DAGs (2–6 tiers, 1–8 replicas each): the pool the testbed
// identifies from measured offered load is the one an analytic
// visit-fraction model predicts to have the maximal load/capacity ratio,
// and removing a replica from a non-bottleneck pool never changes the
// verdict as long as the removal does not itself create a new bottleneck.
func TestBottleneckPoolProperty(t *testing.T) {
	mix := tpcw.Browsing()
	base := DefaultConfig()
	for seed := int64(1); seed <= 10; seed++ {
		// A tiny deterministic PRNG so the cases are stable across runs.
		state := uint64(seed)*2654435761 + 12345
		rnd := func(n int) int {
			state = state*6364136223846793005 + 1442695040888963407
			return int((state >> 33) % uint64(n))
		}

		n := 2 + rnd(5) // 2..6 pools
		topo := TopologyConfig{NetworkHop: base.NetworkHop, Seed: seed}
		names := []string{"app", "t1", "t2", "t3", "t4", "t5"}
		for i := 0; i < n; i++ {
			p := PoolConfig{
				Name:       names[i],
				Replicas:   1 + rnd(8),
				Tier:       base.App,
				DemandFrac: 0.25 + float64(rnd(8))*0.25,
				WorkFrac:   0.5,
			}
			// Deep pools get generous worker bounds so queueing in one
			// pool does not mask demand offered to the next.
			p.Tier.MaxWorkers = 400
			p.Tier.Machine.Speed = 0.5 + float64(rnd(4))*0.5
			switch {
			case i == 0:
				p.Kind = PoolFront
				p.Slot = TierApp
			case i < n-1 && rnd(3) == 0:
				p.Kind = PoolCache
				p.Slot = TierDB
				p.HitRatio = float64(rnd(8)) / 10
			default:
				p.Kind = PoolStore
				p.Slot = TierDB
			}
			if i < n-1 {
				p.Downstream = []string{names[i+1]}
			}
			topo.Pools = append(topo.Pools, p)
		}
		topo.Entry = "app"
		if errs := topo.Validate(); len(errs) > 0 {
			t.Fatalf("seed %d: generated topology invalid: %v", seed, errs)
		}

		// Analytic per-request demand at each pool: visit fraction times
		// demand fraction times the mix-mean profile demand. The arrival
		// rate cancels out of the ratio comparison.
		vf := topo.VisitFractions()
		ratios := make([]float64, n)
		for i, p := range topo.Pools {
			d := vf[p.Name] * p.DemandFrac * meanMixDemand(mix, p.Kind == PoolFront)
			ratios[i] = d / (float64(p.Replicas) * p.Tier.Machine.Speed)
		}
		best, second := -1, -1
		for i, r := range ratios {
			if best < 0 || r > ratios[best] {
				second = best
				best = i
			} else if second < 0 || r > ratios[second] {
				second = i
			}
		}
		if second >= 0 && ratios[second] > 0.8*ratios[best] {
			// Ambiguous case: sampling noise could legitimately flip the
			// verdict. The property only holds for clear bottlenecks.
			continue
		}

		tb, err := NewDAGTestbed(topo, tpcw.Steady(mix, 120, 60))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := tb.Start(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := 0; i < 40; i++ {
			tb.RunInterval(1)
		}

		loads := tb.LifetimeLoads()
		got := BottleneckPool(loads)
		if got != best {
			t.Errorf("seed %d: measured bottleneck %q (ratio %v), analytic model predicts %q (ratio %v)\nloads: %+v",
				seed, loads[got].Pool, loads[got].Ratio(), topo.Pools[best].Name, ratios[best], loads)
			continue
		}
		// The identified pool is by definition the max-ratio pool; check
		// the invariant explicitly anyway.
		for i, l := range loads {
			if l.Ratio() > loads[got].Ratio() {
				t.Errorf("seed %d: pool %d ratio %v exceeds identified bottleneck %v",
					seed, i, l.Ratio(), loads[got].Ratio())
			}
		}
		// Removing a replica from any non-bottleneck pool must not move
		// the verdict, provided the shrunken pool stays below the
		// bottleneck's ratio.
		for i := range loads {
			if i == got || loads[i].Replicas <= 1 {
				continue
			}
			shrunk := append([]PoolLoad(nil), loads...)
			shrunk[i].Replicas--
			shrunk[i].Capacity = loads[i].Capacity * float64(shrunk[i].Replicas) / float64(loads[i].Replicas)
			if shrunk[i].Ratio() >= loads[got].Ratio() {
				continue // the removal created a new bottleneck; verdict may move
			}
			if after := BottleneckPool(shrunk); after != got {
				t.Errorf("seed %d: removing a replica from non-bottleneck pool %q moved the verdict %q -> %q",
					seed, loads[i].Pool, loads[got].Pool, shrunk[after].Pool)
			}
		}
		if name := tb.Bottleneck(); name != loads[got].Pool {
			t.Errorf("seed %d: Bottleneck() = %q, want %q", seed, name, loads[got].Pool)
		}
	}
}
