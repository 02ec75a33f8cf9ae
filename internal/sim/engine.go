// Package sim provides the discrete-event simulation kernel that drives the
// multi-tier website testbed. Time is virtual (seconds as float64), events
// execute in (time, insertion-order) order, and all randomness flows from
// explicitly seeded sources, so every simulation in this repository is fully
// deterministic and runs orders of magnitude faster than real time.
package sim

import "math"

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	clock float64
	seq   uint64
	// events is a binary min-heap over (time, seq), stored by value: the
	// simulator schedules several events per request, and a heap of
	// pointers behind container/heap's any-typed interface costs one
	// allocation for each of them.
	events []event
	// vacant marks events[0] as the slot of the event whose callback is
	// running. The first event that callback schedules takes the slot with
	// one sift-down, where a pop and a push would sift the heap's whole
	// height twice; it is usually the earliest pending event (a tier's
	// next quantum, a browser's next think), so the sift stops at once.
	// The slot is removed if the callback schedules nothing.
	vacant bool
}

// NewEngine returns an Engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.clock }

// Schedule arranges for fn to run delay seconds after the current virtual
// time. A negative delay is treated as zero. Events scheduled for the same
// instant run in scheduling order.
func (e *Engine) Schedule(delay float64, fn func()) {
	if delay < 0 || math.IsNaN(delay) {
		delay = 0
	}
	e.At(e.clock+delay, fn)
}

// At arranges for fn to run at absolute virtual time t. Times in the past
// are clamped to the current time.
func (e *Engine) At(t float64, fn func()) {
	if t < e.clock || math.IsNaN(t) {
		t = e.clock
	}
	e.seq++
	e.push(event{time: t, seq: e.seq, fn: fn})
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	e.settle()
	if len(e.events) == 0 {
		return false
	}
	top := &e.events[0]
	fn := top.fn
	e.clock = top.time
	top.fn = nil
	e.vacant = true
	fn()
	e.settle()
	return true
}

// RunUntil executes events in order until the clock would pass t or no
// events remain. Events scheduled exactly at t are executed. On return the
// clock is at min(t, time of last executed event) — callers that need the
// clock pinned at t should schedule a sentinel event.
func (e *Engine) RunUntil(t float64) {
	e.settle()
	for len(e.events) > 0 && e.events[0].time <= t {
		e.Step()
	}
	if e.clock < t && len(e.events) == 0 {
		e.clock = t
	}
}

// event is a scheduled callback.
type event struct {
	time float64
	seq  uint64 // tie-break: FIFO among same-time events
	fn   func()
}

// before orders events by (time, seq). seq is unique, so the order is
// total: every correct heap pops one and the same sequence, and the queue's
// layout can change without moving a single simulated event.
func (a event) before(b event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// push inserts ev: into the vacant root with a sift-down, otherwise
// sifting the hole up from the new last slot.
func (e *Engine) push(ev event) {
	if e.vacant {
		e.vacant = false
		e.siftDown(ev)
		return
	}
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	e.events = h
}

// settle removes a vacant root, so the heap holds pending events only: the
// last element is sifted down from the root, and its old slot is cleared so
// a fired closure does not stay reachable from the backing array.
func (e *Engine) settle() {
	if !e.vacant {
		return
	}
	e.vacant = false
	n := len(e.events) - 1
	last := e.events[n]
	e.events[n] = event{}
	e.events = e.events[:n]
	if n > 0 {
		e.siftDown(last)
	}
}

// siftDown places ev at the root and moves it down until the heap order
// holds; the root's previous occupant is overwritten.
func (e *Engine) siftDown(ev event) {
	h := e.events
	n := len(h)
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if child+1 < n && h[child+1].before(h[child]) {
			child++
		}
		if !h[child].before(ev) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = ev
}
