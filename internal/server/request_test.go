package server

import (
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpcap/internal/sim"
	"hpcap/internal/tpcw"
)

// TestRequestPathSteadyStateAllocs pins what the request record buys: once
// the free list, the rings and the event heap have grown to the site's
// working depth, a simulated second allocates nothing on the two-slot
// path, and on the DAG path only the slices of the snapshot it returns.
func TestRequestPathSteadyStateAllocs(t *testing.T) {
	tb, err := NewTestbed(DefaultConfig(), tpcw.Steady(tpcw.Shopping(), 200, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	tb.RunInterval(60)
	if n := testing.AllocsPerRun(50, func() { tb.RunInterval(1) }); n != 0 {
		t.Errorf("two-tier RunInterval(1) = %v allocs at steady state, want 0", n)
	}

	// Front → cache → store: the nested frame and both sides of the
	// cache-hit coin run.
	topo := DefaultTopologyConfig()
	dag, err := NewDAGTestbed(topo, tpcw.Steady(tpcw.Shopping(), 200, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	if err := dag.Start(); err != nil {
		t.Fatal(err)
	}
	s := dag.RunInterval(60)
	bursts := map[string]int{}
	for _, ps := range s.Pools {
		for _, r := range ps.Replicas {
			bursts[ps.Pool] += r.Bursts
		}
	}
	if bursts["db"] == 0 || bursts["db"] >= bursts["cache"] {
		t.Fatalf("warm-up ran %d cache and %d db bursts: want both hits and misses", bursts["cache"], bursts["db"])
	}
	own := float64(1 + 2*len(topo.Pools)) // Pools, and Replicas + Draining per pool
	if n := testing.AllocsPerRun(50, func() { dag.RunInterval(1) }); n > own {
		t.Errorf("DAG RunInterval(1) = %v allocs at steady state, want at most the snapshot's own %v", n, own)
	}
}

// powContention is contention as it was before the scheduler-pressure
// table: math.Pow on every call.
func powContention(t *tier) (missRatio, dilation float64) {
	x := t.activeSet / t.cfg.ThrashMB
	ws := x * x / (1 + x*x)
	runnable := float64(t.cpuQueue.len() + 1)
	frac := runnable / float64(t.cfg.MaxWorkers)
	if frac > 1 {
		frac = 1
	}
	sched := math.Pow(frac, 1.5)
	missRatio = t.cfg.BaseMissRatio +
		(t.cfg.MaxMissRatio-t.cfg.BaseMissRatio)*clamp01(0.75*ws+0.35*sched)
	dilation = 1 + t.cfg.MissPenalty*(missRatio-t.cfg.BaseMissRatio) + t.cfg.CtxSwitchK*sched
	return missRatio, dilation
}

// TestSchedTableMatchesPow: the per-tier table is math.Pow bit for bit for
// every runnable count a full worker pool can produce, more runnable than
// workers reads the frac = 1 entry, and contention through the table is
// contention through math.Pow.
func TestSchedTableMatchesPow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultConfig()
	for name, tc := range map[string]TierConfig{"app": cfg.App, "db": cfg.DB} {
		for _, workers := range []int{tc.MaxWorkers, 1, 2, 1 + rng.Intn(64), 1 + rng.Intn(1000)} {
			tc.MaxWorkers = workers
			tr := newTier(TierApp, tc, sim.NewEngine(), sim.NewSource(1))
			if len(tr.schedPow) != workers+1 {
				t.Fatalf("%s MaxWorkers=%d: table has %d entries, want %d", name, workers, len(tr.schedPow), workers+1)
			}
			for r := 1; r <= workers; r++ {
				want := math.Pow(float64(r)/float64(workers), 1.5)
				if math.Float64bits(tr.schedPow[r]) != math.Float64bits(want) {
					t.Fatalf("%s MaxWorkers=%d: table[%d] = %v, math.Pow gives %v", name, workers, r, tr.schedPow[r], want)
				}
			}
			// Walk the run queue past the pool size at several working
			// sets; the queued bursts never run.
			for queued := 0; queued <= workers+3; queued++ {
				for _, mb := range []float64{0, tc.ThrashMB / 3, 2 * tc.ThrashMB} {
					tr.activeSet = mb
					miss, dil := tr.contention()
					wantMiss, wantDil := powContention(tr)
					if math.Float64bits(miss) != math.Float64bits(wantMiss) ||
						math.Float64bits(dil) != math.Float64bits(wantDil) {
						t.Fatalf("%s MaxWorkers=%d queued=%d activeSet=%v: contention = (%v, %v), math.Pow gives (%v, %v)",
							name, workers, queued, mb, miss, dil, wantMiss, wantDil)
					}
				}
				tr.cpuQueue.push(&burst{})
			}
		}
	}
}

// ringItems returns the queued values, head first.
func ringItems[T any](r *ring[T]) []T {
	out := make([]T, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.head+i)%len(r.buf)])
	}
	return out
}

// TestRingMatchesSliceQueue runs random push/pop programs against the ring
// and against the append/[1:] slice queue it replaced: same values out in
// the same order, across growth and wrap-around, and every slot outside
// the live window cleared.
func TestRingMatchesSliceQueue(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var r ring[*int]
		var q []*int
		grew, wrapped := false, false
		// The push bias drifts so that queues fill, drain and refill.
		for op := 0; op < 400; op++ {
			bias := 0.5 + 0.4*math.Sin(float64(op)/40+float64(seed))
			if rng.Float64() < bias {
				v := new(int)
				*v = op
				before := len(r.buf)
				r.push(v)
				q = append(q, v)
				grew = grew || (before > 0 && len(r.buf) > before)
			} else if len(q) > 0 {
				got, want := r.pop(), q[0]
				q[0] = nil
				q = q[1:]
				if got != want {
					t.Fatalf("seed %d op %d: ring popped %d, slice queue %d", seed, op, *got, *want)
				}
			}
			if r.len() != len(q) {
				t.Fatalf("seed %d op %d: ring holds %d, slice queue %d", seed, op, r.len(), len(q))
			}
			wrapped = wrapped || r.head+r.n > len(r.buf)
			live := 0
			for _, v := range r.buf {
				if v != nil {
					live++
				}
			}
			if live != r.len() {
				t.Fatalf("seed %d op %d: %d slots hold a value, %d queued: a popped slot was not cleared",
					seed, op, live, r.len())
			}
		}
		for i, v := range ringItems(&r) {
			if v != q[i] {
				t.Fatalf("seed %d: ring[%d] = %d, slice queue %d", seed, i, *v, *q[i])
			}
		}
		if !grew || !wrapped {
			t.Fatalf("seed %d: program grew=%v wrapped=%v, want both", seed, grew, wrapped)
		}
	}
}

// checkFreeList fails unless every record on the free list is idle: marked
// not in use, listed once, and its burst neither queued for nor running on
// any CPU. (An event or wait-queue entry that still held a freed record's
// step would panic in step itself, which checks the same mark.)
func checkFreeList(t *testing.T, tb *DAGTestbed, when string) {
	t.Helper()
	free := make(map[*burst]bool, len(tb.free))
	for _, rq := range tb.free {
		if rq.inUse {
			t.Fatalf("%s: record on the free list is marked in use", when)
		}
		if free[&rq.burst] {
			t.Fatalf("%s: record on the free list twice", when)
		}
		free[&rq.burst] = true
	}
	for _, p := range tb.pools {
		for _, r := range p.reps {
			if free[r.t.cur] {
				t.Fatalf("%s: pool %s runs the burst of a freed record", when, p.cfg.Name)
			}
			for _, b := range ringItems(&r.t.cpuQueue) {
				if free[b] {
					t.Fatalf("%s: pool %s queues the burst of a freed record", when, p.cfg.Name)
				}
			}
		}
	}
	arr, comp, rej, inFlight := tb.Conservation()
	if arr != comp+rej+inFlight {
		t.Fatalf("%s: conservation violated: %d arrivals != %d + %d + %d in flight", when, arr, comp, rej, inFlight)
	}
}

// fixtureSection returns one case's lines of two_tier_snapshots.golden.
func fixtureSection(t *testing.T, name string) string {
	t.Helper()
	golden, err := os.ReadFile(filepath.Join("testdata", "two_tier_snapshots.golden"))
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(golden), "case "+name+"\n")
	if !ok {
		t.Fatalf("fixture has no case %q", name)
	}
	if i := strings.Index(rest, "\ncase "); i >= 0 {
		rest = rest[:i+1]
	}
	return "case " + name + "\n" + rest
}

// TestRetireWhileInFlight shrinks the population while the retirees'
// requests are queued behind a full worker pool and mid-descent: their
// records must travel on to the response, return to the free list exactly
// once, and leave the run byte-identical to the fixture the closure-based
// path wrote. The nested topology repeats the walk with no fixture to
// compare, against a second run of itself.
func TestRetireWhileInFlight(t *testing.T) {
	// drops lists the seconds at which a schedule's population shrinks.
	drops := func(sched tpcw.Schedule) map[int]bool {
		out := map[int]bool{}
		at := 0.0
		for i, p := range sched.Phases {
			if i > 0 && p.EBs < sched.Phases[i-1].EBs {
				out[int(at)] = true
			}
			at += p.Duration
		}
		return out
	}

	t.Run("two-tier", func(t *testing.T) {
		c := fixtureCases()[0] // swing, browsing, no admission, no periodic load
		tb := c.start(t, false)
		shrinks := drops(c.sched)
		caught := false
		got := c.digest(t, tb, func(sec int) {
			checkFreeList(t, tb.dag, c.name)
			if !shrinks[sec] {
				return
			}
			// The phase event has just run, at this same instant.
			app, db := tb.dag.pools[0].reps[0].t, tb.dag.pools[1].reps[0].t
			orphans := tb.dag.inFlight - len(tb.dag.browsers)
			if orphans > 0 && app.waitQueue.len() > 0 && db.bound > 0 {
				caught = true
			}
		})
		if !caught {
			t.Error("no retirement found requests of the retired both queued for an app worker and at the database")
		}
		if want := fixtureSection(t, c.name); got != want {
			t.Errorf("run diverged from the fixture at %s", firstDiff(got, want))
		}
		if n := len(tb.dag.free); n == 0 || n > 701 {
			t.Errorf("free list holds %d records after the run, want between 1 and the peak population", n)
		}
	})

	t.Run("front-cache-store", func(t *testing.T) {
		// Two app machines behind a cache take several times the load.
		b := tpcw.Browsing()
		sched := tpcw.Concat(
			tpcw.Steady(b, 300, 8),
			tpcw.Steady(b, 2500, 12),
			tpcw.Steady(tpcw.Shopping(), 200, 10),
			tpcw.Schedule{Phases: []tpcw.Phase{{Mix: b, EBs: 1200, Duration: 8, ThinkScale: 0.5}}},
			tpcw.Steady(b, 80, 8),
		)
		shrinks := drops(sched)
		c := twoTierCase{name: "front-cache-store", sched: sched}
		run := func() string {
			tb, err := NewDAGTestbed(DefaultTopologyConfig(), sched)
			if err != nil {
				t.Fatal(err)
			}
			if err := tb.Start(); err != nil {
				t.Fatal(err)
			}
			caught := false
			out := c.digest(t, tb.TwoSlot(), func(sec int) {
				checkFreeList(t, tb, c.name)
				if !shrinks[sec] {
					return
				}
				app, db := tb.byName["app"].reps[0].t, tb.byName["db"].reps[0].t
				orphans := tb.inFlight - len(tb.browsers)
				if orphans > 0 && app.waitQueue.len() > 0 && db.bound > 0 {
					caught = true
				}
			})
			if !caught {
				t.Error("no retirement found requests of the retired both queued for an app worker and at the store")
			}
			return out
		}
		if got, again := run(), run(); got != again {
			t.Errorf("identical runs diverged at %s", firstDiff(got, again))
		}
	})
}

// TestBrowserSpawnAllocs: a new browser is its runner and the bound think
// callback; its session and generator live inside the runner. A spawn that
// reuses a retired runner allocates nothing.
func TestBrowserSpawnAllocs(t *testing.T) {
	tb, err := NewDAGTestbed(TwoTierTopology(DefaultConfig()), tpcw.Steady(tpcw.Shopping(), 1, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	mix := tpcw.Shopping()
	sampler := mix.Sampler()
	// The browser list and the event heap grow by doubling; over 200
	// spawns their share rounds away.
	if n := testing.AllocsPerRun(200, func() { tb.spawnEB(mix, sampler, 1) }); n > 2 {
		t.Errorf("spawnEB = %v allocs, want at most 2", n)
	}
	// Retire the whole population before any of it has issued, and let
	// every retiree's initial think fire: each runner joins the retired
	// list, and the next 201 spawns reuse them.
	spawned := len(tb.browsers)
	tb.applyPhase(tpcw.Phase{Mix: mix, EBs: 0})
	tb.run(2 * tpcw.DefaultThinkTime)
	if len(tb.retired) != spawned {
		t.Fatalf("%d of %d retired runners came back", len(tb.retired), spawned)
	}
	if n := testing.AllocsPerRun(200, func() { tb.spawnEB(mix, sampler, 1) }); n != 0 {
		t.Errorf("spawnEB reusing a retired runner = %v allocs, want 0", n)
	}
}

// respawnPeak is respawnCycles' peak population.
const respawnPeak = 450

// respawnCycles retires most of a population and respawns it every 12
// seconds, 25 times over, switching mix and think time each phase: under
// admission, retirees die thinking, with a request in flight and with a
// request just rejected.
func respawnCycles() tpcw.Schedule {
	cycle := tpcw.Concat(
		tpcw.Steady(tpcw.Browsing(), 60, 5),
		tpcw.Schedule{Phases: []tpcw.Phase{{Mix: tpcw.Ordering(), EBs: respawnPeak, Duration: 4, ThinkScale: 0.5}}},
		tpcw.Steady(tpcw.Shopping(), 25, 3),
	)
	sched := cycle
	for i := 1; i < 25; i++ {
		sched = tpcw.Concat(sched, cycle)
	}
	return sched
}

// TestRespawnReusesRetiredRunners holds the retire/respawn cycle to the
// snapshot stream the simulator made before retired runners were reused:
// the FNV-64a of the case's digest (see twoTierCase.digest), recorded at
// the commit before the change, through both constructors. The run must
// actually reuse runners, and keep no more of them than twice the
// schedule's peak population (the living plus retirees still pending).
func TestRespawnReusesRetiredRunners(t *testing.T) {
	const want = 0x461291b4ee41b533
	c := twoTierCase{name: "respawn-cycles seed=11", seed: 11, sched: respawnCycles(), admission: true}
	for _, viaDAG := range []bool{false, true} {
		tb := c.start(t, viaDAG)
		runners := map[*ebRunner]bool{}
		got := c.digest(t, tb, func(int) {
			for _, r := range tb.dag.browsers {
				runners[r] = true
			}
		})
		h := fnv.New64a()
		io.WriteString(h, got)
		if h.Sum64() != want {
			t.Errorf("viaDAG=%v: snapshot digest %#016x, want %#016x", viaDAG, h.Sum64(), uint64(want))
		}
		t.Logf("viaDAG=%v: %d spawns on %d runners", viaDAG, tb.dag.nextEBID, len(runners))
		if spawned := tb.dag.nextEBID; len(runners) > 2*respawnPeak || spawned <= 2*respawnPeak {
			t.Errorf("viaDAG=%v: %d spawns used %d runners, want more than %d spawns on at most %d runners",
				viaDAG, spawned, len(runners), 2*respawnPeak, 2*respawnPeak)
		}
	}
}
