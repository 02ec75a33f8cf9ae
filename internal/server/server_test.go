package server

import (
	"testing"
	"testing/quick"

	"hpcap/internal/tpcw"
)

func TestDefaultConfigValid(t *testing.T) {
	if errs := DefaultConfig().Validate(); len(errs) > 0 {
		t.Fatalf("DefaultConfig invalid: %v", errs)
	}
}

func TestConfigValidateErrors(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero app workers", func(c *Config) { c.App.MaxWorkers = 0 }},
		{"negative db workers", func(c *Config) { c.DB.MaxWorkers = -3 }},
		{"zero speed", func(c *Config) { c.App.Machine.Speed = 0 }},
		{"zero clock", func(c *Config) { c.DB.Machine.ClockHz = 0 }},
		{"zero ipc", func(c *Config) { c.App.Machine.BaseIPC = 0 }},
		{"zero instr rate", func(c *Config) { c.DB.Machine.InstrPerDemandSec = 0 }},
		{"miss max below base", func(c *Config) { c.App.MaxMissRatio = c.App.BaseMissRatio / 2 }},
		{"miss ratio one", func(c *Config) { c.DB.MaxMissRatio = 1.0 }},
		{"negative base miss", func(c *Config) { c.App.BaseMissRatio = -0.1 }},
		{"zero thrash", func(c *Config) { c.DB.ThrashMB = 0 }},
		{"negative hop", func(c *Config) { c.NetworkHop = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if errs := cfg.Validate(); len(errs) == 0 {
				t.Errorf("%s not rejected", tt.name)
			}
		})
	}
}

func TestNewTestbedRejectsBadInput(t *testing.T) {
	bad := DefaultConfig()
	bad.App.MaxWorkers = 0
	if _, err := NewTestbed(bad, tpcw.Steady(tpcw.Browsing(), 10, 100)); err == nil {
		t.Error("invalid config not rejected")
	}
	if _, err := NewTestbed(DefaultConfig(), tpcw.Schedule{}); err == nil {
		t.Error("empty schedule not rejected")
	}
}

func TestStartTwiceErrors(t *testing.T) {
	tb, err := NewTestbed(DefaultConfig(), tpcw.Steady(tpcw.Browsing(), 10, 100))
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

func TestTierIDString(t *testing.T) {
	if TierApp.String() != "app" || TierDB.String() != "db" {
		t.Error("tier names wrong")
	}
	if TierID(9).String() != "tier?" {
		t.Error("unknown tier name wrong")
	}
}

// runFor advances the testbed and aggregates n seconds of telemetry.
func runFor(t *testing.T, tb *Testbed, seconds int) (thr, meanRT, appUtil, dbUtil, appMiss, dbMiss float64) {
	t.Helper()
	var completions int
	var rtWeighted float64
	var appBusy, dbBusy, appMissSum, dbMissSum float64
	for i := 0; i < seconds; i++ {
		s := tb.RunInterval(1)
		completions += s.Completions
		rtWeighted += s.MeanRT * float64(s.Completions)
		appBusy += s.Tiers[TierApp].BusySeconds
		dbBusy += s.Tiers[TierDB].BusySeconds
		appMissSum += s.Tiers[TierApp].MeanMissRatio
		dbMissSum += s.Tiers[TierDB].MeanMissRatio
	}
	thr = float64(completions) / float64(seconds)
	if completions > 0 {
		meanRT = rtWeighted / float64(completions)
	}
	appUtil = appBusy / float64(seconds)
	dbUtil = dbBusy / float64(seconds)
	appMiss = appMissSum / float64(seconds)
	dbMiss = dbMissSum / float64(seconds)
	return thr, meanRT, appUtil, dbUtil, appMiss, dbMiss
}

func TestLightLoadHealthy(t *testing.T) {
	tb, err := NewTestbed(DefaultConfig(), tpcw.Steady(tpcw.Shopping(), 50, 400))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	tb.RunInterval(100) // warm-up
	thr, rt, appU, dbU, _, _ := runFor(t, tb, 300)

	// Little's law: 50 EBs, ~7 s think, small RT → ≈7 interactions/s.
	if thr < 5.5 || thr > 8.5 {
		t.Errorf("throughput = %v/s, want ≈7", thr)
	}
	if rt > 0.15 {
		t.Errorf("mean RT = %v, want well under 150 ms at light load", rt)
	}
	// Utilization includes idle-priority background work (log rotation on
	// the app tier; InnoDB housekeeping soaking ≈0.6 CPU on the DB), so a
	// lightly loaded site still shows a busy database CPU.
	if appU > 0.45 {
		t.Errorf("app utilization = %v, want light", appU)
	}
	if dbU < 0.5 || dbU > 0.95 {
		t.Errorf("db utilization = %v, want dominated by background work", dbU)
	}
}

func TestOrderingOverloadHitsAppTier(t *testing.T) {
	// Push far past the app tier's saturation point with the ordering mix.
	tb, err := NewTestbed(DefaultConfig(), tpcw.Steady(tpcw.Ordering(), 600, 700))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	tb.RunInterval(250) // allow the avalanche to settle
	thr, rt, appU, dbU, appMiss, dbMiss := runFor(t, tb, 300)

	if appU < 0.97 {
		t.Errorf("app utilization = %v, want pegged ≈1", appU)
	}
	if dbU > appU-0.05 {
		t.Errorf("db utilization = %v, want clearly below the app tier's %v", dbU, appU)
	}
	if rt < 1.0 {
		t.Errorf("mean RT = %v, want severely inflated", rt)
	}
	if appMiss < 0.06 {
		t.Errorf("app miss ratio = %v, want inflated by context-switch pollution", appMiss)
	}
	if dbMiss > 0.1 {
		t.Errorf("db miss ratio = %v, want near baseline", dbMiss)
	}
	// Throughput must be below the healthy saturation peak (≈48/s).
	if thr > 40 {
		t.Errorf("overloaded throughput = %v/s, want degraded below peak", thr)
	}
	app := tb.RunInterval(1).Tiers[TierApp]
	if app.RunQueue < 50 {
		t.Errorf("app run queue = %d, want long under overload", app.RunQueue)
	}
}

func TestBrowsingOverloadHitsDBTier(t *testing.T) {
	tb, err := NewTestbed(DefaultConfig(), tpcw.Steady(tpcw.Browsing(), 450, 700))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	tb.RunInterval(250)
	_, rt, appU, dbU, appMiss, dbMiss := runFor(t, tb, 300)

	if dbU < 0.97 {
		t.Errorf("db utilization = %v, want pegged ≈1", dbU)
	}
	if appU > 0.5 {
		t.Errorf("app utilization = %v, want low (threads blocked, not running)", appU)
	}
	if rt < 1.0 {
		t.Errorf("mean RT = %v, want severely inflated", rt)
	}
	if dbMiss < 0.2 {
		t.Errorf("db miss ratio = %v, want thrashing", dbMiss)
	}
	if appMiss > 0.05 {
		t.Errorf("app miss ratio = %v, want near baseline", appMiss)
	}
	s := tb.RunInterval(1)
	// The paper's central asymmetry: under DB-bottleneck overload neither
	// machine's run queue betrays the overload. App threads are blocked on
	// the database; thrashed DB queries are asleep on buffer-pool locks.
	if q := s.Tiers[TierApp].RunQueue; q > 20 {
		t.Errorf("app run queue = %d, want short under DB-bottleneck overload", q)
	}
	if q := s.Tiers[TierDB].RunQueue; q > 10 {
		t.Errorf("db run queue = %d, want lock-blocking to hide most queued conns", q)
	}
	if b := s.Tiers[TierDB].BoundWorkers; b < 7 {
		t.Errorf("db bound connections = %d, want the pool pinned", b)
	}
}

func TestBottleneckShiftsWithMix(t *testing.T) {
	// Interleaving browsing and ordering at a level that overloads both
	// must move the busier tier back and forth.
	sched := tpcw.Schedule{Phases: []tpcw.Phase{
		{Mix: tpcw.Browsing(), EBs: 600, Duration: 400},
		{Mix: tpcw.Ordering(), EBs: 600, Duration: 400},
	}}
	tb, err := NewTestbed(DefaultConfig(), sched)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	tb.RunInterval(200)
	_, _, appU1, dbU1, _, _ := runFor(t, tb, 150)
	tb.RunInterval(100) // into the ordering phase
	tb.RunInterval(150) // let the backlog of heavy queries drain
	_, _, appU2, dbU2, _, _ := runFor(t, tb, 150)

	if dbU1 < appU1 {
		t.Errorf("browsing phase: db=%v app=%v, want DB busier", dbU1, appU1)
	}
	if appU2 < dbU2 {
		t.Errorf("ordering phase: app=%v db=%v, want app busier", appU2, dbU2)
	}
}

func TestConservationProperty(t *testing.T) {
	f := func(seed int64, ebsRaw uint8) bool {
		cfg := DefaultConfig()
		cfg.Seed = seed
		ebs := int(ebsRaw)%200 + 5
		tb, err := NewTestbed(cfg, tpcw.Steady(tpcw.Shopping(), ebs, 200))
		if err != nil {
			return false
		}
		if err := tb.Start(); err != nil {
			return false
		}
		tb.RunInterval(150)
		arr, comp, rej, inflight := tb.Conservation()
		return arr == comp+rej+inflight && inflight >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Snapshot {
		tb, err := NewTestbed(DefaultConfig(), tpcw.Steady(tpcw.Shopping(), 80, 120))
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.Start(); err != nil {
			t.Fatal(err)
		}
		out := make([]Snapshot, 0, 120)
		for i := 0; i < 120; i++ {
			out = append(out, tb.RunInterval(1))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("snapshots diverge at %d:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestPhaseEBAdjustment(t *testing.T) {
	sched := tpcw.Schedule{Phases: []tpcw.Phase{
		{Mix: tpcw.Shopping(), EBs: 20, Duration: 50},
		{Mix: tpcw.Shopping(), EBs: 60, Duration: 50},
		{Mix: tpcw.Shopping(), EBs: 10, Duration: 50},
	}}
	tb, err := NewTestbed(DefaultConfig(), sched)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	s := tb.RunInterval(25)
	if s.ActiveEBs != 20 {
		t.Errorf("phase 1 ActiveEBs = %d, want 20", s.ActiveEBs)
	}
	tb.RunInterval(50)
	s = tb.RunInterval(1)
	if s.ActiveEBs != 60 {
		t.Errorf("phase 2 ActiveEBs = %d, want 60", s.ActiveEBs)
	}
	tb.RunInterval(50)
	s = tb.RunInterval(1)
	if s.ActiveEBs != 10 {
		t.Errorf("phase 3 ActiveEBs = %d, want 10", s.ActiveEBs)
	}
}

func TestAdmissionControlRejects(t *testing.T) {
	tb, err := NewTestbed(DefaultConfig(), tpcw.Steady(tpcw.Shopping(), 50, 200))
	if err != nil {
		t.Fatal(err)
	}
	tb.SetAdmission(func(AdmissionState) bool { return false })
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	var completions, rejections int
	for i := 0; i < 150; i++ {
		s := tb.RunInterval(1)
		completions += s.Completions
		rejections += s.Rejections
	}
	if completions != 0 {
		t.Errorf("completions = %d with reject-all admission", completions)
	}
	if rejections == 0 {
		t.Error("no rejections recorded")
	}
	arr, comp, rej, inflight := tb.Conservation()
	if arr != comp+rej+inflight {
		t.Errorf("conservation violated: %d != %d+%d+%d", arr, comp, rej, inflight)
	}
}

func TestSnapshotFlowsReset(t *testing.T) {
	tb, err := NewTestbed(DefaultConfig(), tpcw.Steady(tpcw.Shopping(), 40, 400))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	tb.RunInterval(60)
	a := tb.RunInterval(10)
	b := tb.RunInterval(10)
	// Flows must be per-interval, not cumulative: two consecutive
	// same-length intervals at steady state have similar, not doubled,
	// busy seconds.
	if b.Tiers[TierApp].BusySeconds > a.Tiers[TierApp].BusySeconds*3+0.5 {
		t.Errorf("busy seconds look cumulative: %v then %v",
			a.Tiers[TierApp].BusySeconds, b.Tiers[TierApp].BusySeconds)
	}
	if b.Time-a.Time != 10 {
		t.Errorf("interval timing wrong: %v -> %v", a.Time, b.Time)
	}
}

func TestAddPeriodicLoad(t *testing.T) {
	// An idle testbed with a periodic 40 ms burst every second shows ≈4%
	// utilization on the loaded tier.
	cfg := DefaultConfig()
	cfg.App.BackgroundRate = 0 // isolate the periodic load
	tb, err := NewTestbed(cfg, tpcw.Steady(tpcw.Shopping(), 0, 200))
	if err != nil {
		t.Fatal(err)
	}
	tb.AddPeriodicLoad(TierApp, 1.0, 0.040)
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	tb.RunInterval(10)
	var busy float64
	for i := 0; i < 100; i++ {
		busy += tb.RunInterval(1).Tiers[TierApp].BusySeconds
	}
	util := busy / 100
	if util < 0.03 || util > 0.06 {
		t.Errorf("periodic-load utilization = %v, want ≈0.04", util)
	}
}

func TestMeanRTZeroWithoutCompletions(t *testing.T) {
	tb, err := NewTestbed(DefaultConfig(), tpcw.Steady(tpcw.Shopping(), 0, 100))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	s := tb.RunInterval(5)
	if s.MeanRT != 0 || s.Completions != 0 {
		t.Errorf("idle snapshot has MeanRT=%v Completions=%d", s.MeanRT, s.Completions)
	}
}

// TestClassArrivalsAccounting checks the per-class arrival histogram: it
// partitions the interval's arrivals, resets between samples, and follows
// the offered mix when a schedule shifts mid-run.
func TestClassArrivalsAccounting(t *testing.T) {
	sched := tpcw.Steady(tpcw.Browsing(), 80, 600).ShiftAt(300, tpcw.Ordering())
	tb, err := NewTestbed(DefaultConfig(), sched)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	// An all-order mix weighs exactly the Order-class interactions.
	orderClass := tpcw.NewMix("order", 1).Weights
	orderShare := func(s Snapshot) float64 {
		total, order := 0, 0
		for c, n := range s.ClassArrivals {
			total += n
			if orderClass[tpcw.Interaction(c)+tpcw.Home] > 0 {
				order += n
			}
		}
		if total != s.Arrivals {
			t.Errorf("class counts sum to %d, Arrivals = %d", total, s.Arrivals)
		}
		if total == 0 {
			t.Fatal("interval saw no arrivals")
		}
		return float64(order) / float64(total)
	}

	tb.RunInterval(60) // warm-up
	browse := orderShare(tb.RunInterval(200))
	next := tb.RunInterval(1)
	for c, n := range next.ClassArrivals {
		if n < 0 || n > next.Arrivals {
			t.Errorf("class %d count %d out of range after reset", c, n)
		}
	}
	tb.RunInterval(99) // cross the shift, discard the mixed interval
	order := orderShare(tb.RunInterval(200))

	// Browsing is 5% order-class, ordering 50%.
	if browse > 0.15 {
		t.Errorf("browsing phase order share = %v, want ≈0.05", browse)
	}
	if order < 0.35 {
		t.Errorf("ordering phase order share = %v, want ≈0.5", order)
	}
}
