package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 3 {
		t.Errorf("Now = %v, want 3", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(-5, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if e.Now() != 0 {
		t.Errorf("Now = %v, want 0", e.Now())
	}
}

func TestEngineNaNDelayClamped(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(math.NaN(), func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("NaN-delay event did not fire")
	}
}

func TestEngineEventsScheduleEvents(t *testing.T) {
	e := NewEngine()
	var times []float64
	e.Schedule(1, func() {
		times = append(times, e.Now())
		e.Schedule(1, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Fatalf("times = %v, want [1 2]", times)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		e.Schedule(1, tick)
	}
	e.Schedule(1, tick)
	e.RunUntil(10.5)
	if count != 10 {
		t.Errorf("ticks = %d, want 10", count)
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(42)
	if e.Now() != 42 {
		t.Errorf("Now = %v, want 42 with no events", e.Now())
	}
}

func TestAtPastClamped(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {})
	e.Run()
	fired := false
	e.At(1, func() { fired = true }) // in the past; clamps to now=5
	e.Run()
	if !fired {
		t.Fatal("past event did not fire")
	}
	if e.Now() != 5 {
		t.Errorf("Now = %v, want 5", e.Now())
	}
}

func TestStepEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Error("Step on empty queue returned true")
	}
}

// Property: events always execute in non-decreasing time order no matter the
// insertion order.
func TestEngineDequeueOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		n := 100
		var executed []float64
		for i := 0; i < n; i++ {
			d := rng.Float64() * 1000
			e.Schedule(d, func() { executed = append(executed, e.Now()) })
		}
		e.Run()
		return len(executed) == n && sort.Float64sAreSorted(executed)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEngineMatchesStableSort runs random programs against the queue —
// same-instant bursts, past and NaN times, events that schedule events,
// Step interleaved with RunUntil — and checks that events fire in exactly
// the order a stable sort of everything pending by time predicts (so
// insertion order breaks ties), with Pending and the clock agreeing.
func TestEngineMatchesStableSort(t *testing.T) {
	type pending struct {
		time float64
		id   int
	}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var model []pending // insertion order
		nextID, budget := 0, 400

		var schedule func()
		fire := func(id int) {
			sorted := append([]pending(nil), model...)
			sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].time < sorted[j].time })
			want := sorted[0]
			if id != want.id || e.Now() != want.time {
				t.Fatalf("seed %d: fired event %d at %v, stable sort predicts %d at %v",
					seed, id, e.Now(), want.id, want.time)
			}
			for i, p := range model {
				if p.id == want.id {
					model = append(model[:i], model[i+1:]...)
					break
				}
			}
			for n := rng.Intn(3); n > 0; n-- {
				schedule()
			}
		}
		// schedule adds one event through At or Schedule, drawing its time
		// from a small grid so that ties are common, and mirrors the
		// engine's clamps in the model.
		schedule = func() {
			if budget == 0 {
				return
			}
			budget--
			id := nextID
			nextID++
			fn := func() { fire(id) }
			offsets := []float64{0, 0, 0.5, 1, 1, 2.5, -3, math.NaN()}
			d := offsets[rng.Intn(len(offsets))]
			at := e.Now()
			if d > 0 {
				at += d
			}
			if rng.Intn(2) == 0 {
				e.Schedule(d, fn)
			} else {
				e.At(e.Now()+d, fn)
			}
			model = append(model, pending{time: at, id: id})
		}

		for budget > 0 || len(model) > 0 {
			switch op := rng.Intn(6); {
			case op < 3:
				schedule()
			case op < 5:
				if had := len(model) > 0; e.Step() != had {
					t.Fatalf("seed %d: Step reported %t with %d events pending", seed, !had, len(model))
				}
			default:
				until := e.Now() + float64(rng.Intn(3))
				e.RunUntil(until)
				for _, p := range model {
					if p.time <= until {
						t.Fatalf("seed %d: RunUntil(%v) left event %d at %v pending", seed, until, p.id, p.time)
					}
				}
				if len(model) == 0 && e.Now() != until {
					t.Fatalf("seed %d: RunUntil(%v) on a drained queue left the clock at %v", seed, until, e.Now())
				}
			}
			if e.Pending() != len(model) {
				t.Fatalf("seed %d: Pending = %d, model holds %d", seed, e.Pending(), len(model))
			}
		}
		if e.Step() {
			t.Fatalf("seed %d: Step fired on a drained queue", seed)
		}
		if nextID != 400 {
			t.Fatalf("seed %d: scheduled %d events, want 400", seed, nextID)
		}
	}
}

// TestEngineSteadyStateAllocs pins what storing events by value buys: once
// the backing array has grown to the queue's working depth, scheduling and
// firing an event allocates nothing.
func TestEngineSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(float64(i), fn)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(1, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("Schedule+Step = %v allocs/op at steady state, want 0", allocs)
	}
}
