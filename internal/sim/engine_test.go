package sim

import (
	"fmt"
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

// checkEngineProgram runs one program against the queue — same-instant
// bursts, past and NaN times, Step interleaved with RunUntil, callbacks that
// schedule 0, 1 or 3 events and that call Step or RunUntil reentrantly —
// and checks that events fire in exactly the order a stable sort of
// everything pending by time predicts (so insertion order breaks ties),
// with Pending and the clock agreeing with the model inside callbacks and
// between operations. choose(n) makes each choice of the program, in
// [0, n); budget caps the events scheduled.
func checkEngineProgram(t *testing.T, choose func(n int) int, budget int) {
	t.Helper()
	type pending struct {
		time float64
		id   int
	}
	e := NewEngine()
	var model []pending // insertion order
	var clock float64
	nextID, depth := 0, 0
	// bounds[len-1] is the latest time the innermost Step or RunUntil in
	// progress may fire an event at.
	var bounds []float64
	check := func(where string) {
		t.Helper()
		if e.Pending() != len(model) {
			t.Fatalf("%s: Pending = %d, model holds %d", where, e.Pending(), len(model))
		}
		if e.Now() != clock {
			t.Fatalf("%s: Now = %v, model clock %v", where, e.Now(), clock)
		}
	}

	var schedule, step, runUntil func()
	fire := func(id int) {
		sorted := append([]pending(nil), model...)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].time < sorted[j].time })
		want := sorted[0]
		if id != want.id || e.Now() != want.time {
			t.Fatalf("fired event %d at %v, stable sort predicts %d at %v", id, e.Now(), want.id, want.time)
		}
		if bound := bounds[len(bounds)-1]; want.time > bound {
			t.Fatalf("fired event %d at %v, past RunUntil(%v)", id, want.time, bound)
		}
		clock = want.time
		for i, p := range model {
			if p.id == want.id {
				model = append(model[:i], model[i+1:]...)
				break
			}
		}
		check("callback entry")
		n := []int{0, 1, 3}[choose(3)]
		before := choose(n + 1)
		for i := 0; i < before; i++ {
			schedule()
		}
		if op := choose(4); op >= 2 && depth < 3 {
			depth++
			if op == 2 {
				step()
			} else {
				runUntil()
			}
			depth--
		}
		for i := before; i < n; i++ {
			schedule()
		}
		check("callback exit")
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
		d := offsets[choose(len(offsets))]
		at := clock
		if d > 0 {
			at += d
		}
		if choose(2) == 0 {
			e.Schedule(d, fn)
		} else {
			e.At(e.Now()+d, fn)
		}
		model = append(model, pending{time: at, id: id})
		check("schedule")
	}
	step = func() {
		had := len(model) > 0
		bounds = append(bounds, math.Inf(1))
		fired := e.Step()
		bounds = bounds[:len(bounds)-1]
		if fired != had {
			t.Fatalf("Step reported %t with an event pending: %t", fired, had)
		}
		check("Step")
	}
	runUntil = func() {
		until := clock + float64(choose(3))
		bounds = append(bounds, until)
		e.RunUntil(until)
		bounds = bounds[:len(bounds)-1]
		for _, p := range model {
			if p.time <= until {
				t.Fatalf("RunUntil(%v) left event %d at %v pending", until, p.id, p.time)
			}
		}
		if len(model) == 0 && clock < until {
			clock = until
		}
		check("RunUntil")
	}

	for budget > 0 || len(model) > 0 {
		switch op := choose(6); {
		case op < 3 && budget > 0:
			schedule()
		case op < 5:
			step()
		default:
			runUntil()
		}
	}
	if e.Step() {
		t.Fatal("Step fired on a drained queue")
	}
}

// TestEngineMatchesStableSort holds the queue to its stable-sort model
// over 200 random programs of 400 events each.
func TestEngineMatchesStableSort(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			checkEngineProgram(t, rng.Intn, 400)
		})
	}
}

// FuzzEngineMatchesStableSort lets the fuzzer write the program: each byte
// is one choice, and choices past the input's end are 0.
func FuzzEngineMatchesStableSort(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 2, 1, 5, 4, 3, 3, 2, 1, 0, 7, 6})
	f.Add([]byte("\x02\x01\x03\x00\x05\x02\x02\x03\x01\x04\x00\x02"))
	f.Fuzz(func(t *testing.T, program []byte) {
		choose := func(n int) int {
			if len(program) == 0 {
				return 0
			}
			c := int(program[0]) % n
			program = program[1:]
			return c
		}
		checkEngineProgram(t, choose, 200)
	})
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
