package server

import (
	"math"

	"hpcap/internal/sim"
)

// TierID identifies one tier of the website.
type TierID int

// The two tiers of the testbed.
const (
	TierApp TierID = iota
	TierDB
)

// NumTiers is the number of tiers in the testbed.
const NumTiers = 2

// String returns the tier's name.
func (t TierID) String() string {
	switch t {
	case TierApp:
		return "app"
	case TierDB:
		return "db"
	default:
		return "tier?"
	}
}

// burst is one CPU demand placed on a tier's processor. The CPU is shared
// round-robin in fixed quanta, approximating the Linux scheduler: light
// bursts complete quickly even while heavy bursts are in progress. A
// request embeds its one burst and reuses it for every demand it places,
// so done is bound once per record, not once per burst.
type burst struct {
	remaining float64 // CPU seconds at speed 1.0 still to execute
	done      func()
}

// waiter is a worker-slot acquisition request queued behind a full pool.
type waiter struct {
	workMB   float64
	acquired func()
}

// ring is a FIFO queue over a circular buffer that doubles when full (its
// size stays a power of two), so a queue in steady state never allocates.
// pop clears the slot it vacates: a queued callback must not stay
// reachable from the buffer.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) len() int { return r.n }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(4, 2*len(r.buf)))
		k := copy(grown, r.buf[r.head:])
		copy(grown[k:], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// tier models one machine running one server process: a bounded worker pool
// (servlet threads on the app tier, connections on the DB tier), a FIFO
// queue of requests waiting for a slot, and a single FCFS CPU executing the
// bursts of bound workers.
//
// The CPU is a single server, so exactly one quantum — of a request burst
// or of housekeeping — is in flight at any time. Its parameters live in
// the cur* fields and its completion is one of three callbacks bound once
// in newTier (onQuantum, onBackground, onBgWake): scheduling a quantum
// allocates nothing.
type tier struct {
	id     TierID
	cfg    TierConfig
	engine *sim.Engine
	rng    *sim.Source

	// Worker pool.
	bound     int // workers currently bound (running or blocked downstream)
	waitQueue ring[waiter]
	activeSet float64 // total working-set MB of bound workers

	// CPU.
	cpuQueue ring[*burst] // runnable bursts awaiting the processor
	cpuBusy  bool

	// The request quantum in flight (cur is nil between quanta).
	cur         *burst
	curConsumed float64
	curWall     float64
	curMiss     float64
	curDilation float64

	onQuantum, onBackground, onBgWake func()

	// schedPow[r] is (r/MaxWorkers)^1.5, the scheduler-pressure term of
	// contention for r runnable workers, r = 0..MaxWorkers: math.Pow once
	// per table entry instead of once per quantum.
	schedPow []float64

	// Idle-priority background work: a credit of pending CPU-seconds that
	// refills at cfg.BackgroundRate and is consumed one quantum at a time
	// whenever no request burst is runnable.
	bgCredit  float64
	bgAccrued float64 // virtual time of the last credit refill
	bgWake    bool    // a wake-up event is pending

	// stopped shuts the housekeeping loop down: a drained DAG replica
	// finishes its in-flight request bursts but accrues no further
	// background work. Always false on the two-tier site, which never
	// scales.
	stopped bool

	acc intervalAccum
}

// intervalAccum accumulates per-interval counter flows; gauges are read
// directly from the tier at sample time.
type intervalAccum struct {
	busySeconds  float64
	fgBusy       float64 // request processing only, excluding housekeeping
	instructions float64
	cycles       float64
	l2Refs       float64
	l2Misses     float64
	ctxSwitches  float64
	itlbMisses   float64
	branches     float64
	branchMiss   float64
	bursts       int
	dilationSum  float64 // wall-weighted dilation for diagnostics
	missSum      float64 // wall-weighted miss ratio
}

func newTier(id TierID, cfg TierConfig, engine *sim.Engine, rng *sim.Source) *tier {
	t := &tier{id: id, cfg: cfg, engine: engine, rng: rng}
	t.onQuantum, t.onBackground, t.onBgWake = t.quantumDone, t.backgroundDone, t.bgWakeUp
	t.schedPow = make([]float64, cfg.MaxWorkers+1)
	for r := range t.schedPow {
		t.schedPow[r] = math.Pow(float64(r)/float64(cfg.MaxWorkers), 1.5)
	}
	if cfg.BackgroundRate > 0 {
		// Kick the idle-priority housekeeping loop once the simulation
		// starts.
		engine.Schedule(0, t.kick)
	}
	return t
}

// kick starts the housekeeping loop on an idle CPU.
func (t *tier) kick() {
	if !t.cpuBusy {
		t.cpuBusy = true
		t.startNext()
	}
}

// acquire obtains a worker slot charged with workMB of working set, calling
// fn once the slot is held. If the pool is full the acquisition queues FIFO.
func (t *tier) acquire(workMB float64, fn func()) {
	if t.bound < t.cfg.MaxWorkers {
		t.bound++
		t.activeSet += workMB
		fn()
		return
	}
	t.waitQueue.push(waiter{workMB: workMB, acquired: fn})
}

// release frees a slot acquired with acquire and hands it to the next
// waiter, if any.
func (t *tier) release(workMB float64) {
	t.bound--
	t.activeSet -= workMB
	if t.activeSet < 0 {
		t.activeSet = 0
	}
	if t.waitQueue.len() == 0 {
		return
	}
	w := t.waitQueue.pop()
	t.bound++
	t.activeSet += w.workMB
	w.acquired()
}

// runBurst places b's remaining demand on the processor; b.done runs at
// completion and b is the tier's until then. Request bursts belong to
// workers that already hold a slot: the entry tier's thread stays bound
// across the downstream calls (the request "dead time" of the paper), a
// downstream tier's connection for the one query.
func (t *tier) runBurst(b *burst) {
	t.cpuQueue.push(b)
	if !t.cpuBusy {
		t.startNext()
	}
}

// startNext pops the CPU queue and executes one quantum of the head burst,
// re-queuing it at the tail if work remains (round-robin time sharing).
// With no runnable request burst, idle-priority background work runs
// instead.
func (t *tier) startNext() {
	if t.cpuQueue.len() == 0 {
		if t.runBackground() {
			return
		}
		t.cpuBusy = false
		return
	}
	t.cpuBusy = true
	b := t.cpuQueue.pop()

	// Contention is evaluated per quantum, so a burst's dilation tracks
	// the load around it as it executes.
	miss, dil := t.contention()
	// A quantum of wall time executes quantum*speed/dil of demand.
	consumed := quantumSec * t.cfg.Machine.Speed / dil
	wall := quantumSec
	if consumed >= b.remaining {
		consumed = b.remaining
		wall = consumed / t.cfg.Machine.Speed * dil
	}
	b.remaining -= consumed

	t.cur, t.curConsumed, t.curWall, t.curMiss, t.curDilation = b, consumed, wall, miss, dil
	t.engine.Schedule(wall, t.onQuantum)
}

// quantumDone completes the request quantum in flight.
func (t *tier) quantumDone() {
	b := t.cur
	t.cur = nil
	t.account(t.curConsumed, t.curWall, t.curMiss, t.curDilation)
	if b.remaining > 1e-12 {
		t.cpuQueue.push(b)
		t.startNext()
		return
	}
	t.acc.bursts++
	t.startNext()
	if b.done != nil {
		b.done()
	}
}

// accrueBackground refills the background-work credit from elapsed virtual
// time, capped at the configured bank so catch-up bursts are bounded.
func (t *tier) accrueBackground() {
	now := t.engine.Now()
	t.bgCredit += (now - t.bgAccrued) * t.cfg.BackgroundRate
	t.bgAccrued = now
	bank := t.cfg.BackgroundBankSec
	if bank <= 0 {
		bank = 1
	}
	if t.bgCredit > bank {
		t.bgCredit = bank
	}
}

// runBackground executes one quantum of housekeeping work if credit allows,
// reporting whether the CPU stays busy. With insufficient credit it arms a
// wake-up for when the credit refills.
func (t *tier) runBackground() bool {
	if t.cfg.BackgroundRate <= 0 || t.stopped {
		return false
	}
	t.accrueBackground()
	need := quantumSec * t.cfg.Machine.Speed
	if t.bgCredit < need {
		if !t.bgWake {
			t.bgWake = true
			// Wake slightly late so floating-point accrual cannot land a
			// hair short of the quantum and re-arm at an infinitesimal
			// delay.
			delay := (need-t.bgCredit)/t.cfg.BackgroundRate*1.01 + 1e-6
			t.engine.Schedule(delay, t.onBgWake)
		}
		return false
	}
	t.cpuBusy = true
	t.bgCredit -= need
	t.engine.Schedule(quantumSec, t.onBackground)
	return true
}

// backgroundDone completes the housekeeping quantum in flight: always a
// whole quantum, so it carries no state.
func (t *tier) backgroundDone() {
	t.accountBackground(quantumSec*t.cfg.Machine.Speed, quantumSec)
	t.startNext()
}

// bgWakeUp fires when the background credit has refilled.
func (t *tier) bgWakeUp() {
	t.bgWake = false
	t.kick()
}

// accountBackground charges one housekeeping quantum: real instructions and
// cycles with benign cache behaviour.
func (t *tier) accountBackground(consumed, wall float64) {
	m := t.cfg.Machine
	instr := consumed * m.InstrPerDemandSec
	t.acc.busySeconds += wall
	t.acc.instructions += instr
	t.acc.cycles += wall * m.ClockHz
	t.acc.l2Refs += instr * m.L2RefPerInstr
	t.acc.l2Misses += instr * m.L2RefPerInstr * t.cfg.BackgroundMiss
	t.acc.ctxSwitches++
	t.acc.itlbMisses += 85 + instr*1.2e-5
	t.acc.branches += instr * m.BranchPerInstr
	t.acc.branchMiss += instr * m.BranchPerInstr * 0.045
	t.acc.dilationSum += wall
	t.acc.missSum += t.cfg.BackgroundMiss * wall
}

// contention returns the current L2 miss ratio and service-time dilation,
// evaluated from the tier's instantaneous state. This is where overload is
// born: dilation consumes real capacity while simultaneously leaving its
// signature in the hardware counters.
func (t *tier) contention() (missRatio, dilation float64) {
	// Working-set saturation: x²/(1+x²) reaches ½ at ThrashMB.
	x := t.activeSet / t.cfg.ThrashMB
	ws := x * x / (1 + x*x)

	// Scheduler pressure from runnable workers.
	// More runnable than workers (periodic bursts hold no slot) reads
	// the last entry, frac = 1.
	runnable := t.cpuQueue.len() + 1 // including the one we start
	sched := t.schedPow[min(runnable, t.cfg.MaxWorkers)]

	missRatio = t.cfg.BaseMissRatio +
		(t.cfg.MaxMissRatio-t.cfg.BaseMissRatio)*clamp01(0.75*ws+0.35*sched)
	dilation = 1 + t.cfg.MissPenalty*(missRatio-t.cfg.BaseMissRatio) + t.cfg.CtxSwitchK*sched
	return missRatio, dilation
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// account charges one executed quantum to the interval accumulators.
func (t *tier) account(consumed, wall, missRatio, dilation float64) {
	m := t.cfg.Machine
	instr := consumed * m.InstrPerDemandSec
	cycles := wall * m.ClockHz
	runnable := float64(t.cpuQueue.len() + 1)
	// One involuntary switch per quantum boundary plus load-dependent
	// voluntary switching (wakeups, lock handoffs).
	cs := 1 + wall*t.cfg.CtxSwitchRate*runnable

	t.acc.busySeconds += wall
	t.acc.fgBusy += wall
	t.acc.instructions += instr
	t.acc.cycles += cycles
	t.acc.l2Refs += instr * m.L2RefPerInstr
	t.acc.l2Misses += instr * m.L2RefPerInstr * missRatio
	t.acc.ctxSwitches += cs
	// Each context switch costs ITLB refills; add a base rate for the
	// process's own paging behaviour.
	t.acc.itlbMisses += cs*85 + instr*1.2e-5
	t.acc.branches += instr * m.BranchPerInstr
	// Branch misprediction degrades slightly with cache pressure
	// (polluted BTB).
	t.acc.branchMiss += instr * m.BranchPerInstr * (0.045 + 0.05*missRatio)
	t.acc.dilationSum += dilation * wall
	t.acc.missSum += missRatio * wall
}

// TierSnapshot is the per-interval telemetry of one tier: counter flows
// accumulated since the previous snapshot plus instantaneous gauges.
type TierSnapshot struct {
	Tier TierID

	// Flows over the interval.
	BusySeconds float64
	// FgBusySeconds excludes idle-priority housekeeping: the CPU time
	// spent on request processing alone. It is not visible to either
	// metric collector; experiments use it for ground-truth bottleneck
	// attribution.
	FgBusySeconds float64
	Instructions  float64
	Cycles        float64
	L2Refs        float64
	L2Misses      float64
	CtxSwitches   float64
	ITLBMisses    float64
	Branches      float64
	BranchMiss    float64
	Bursts        int
	// MeanDilation and MeanMissRatio are wall-time-weighted means over
	// the interval's bursts (diagnostics; collectors do not see them).
	MeanDilation  float64
	MeanMissRatio float64

	// Gauges at snapshot time.
	RunQueue     int     // runnable bursts queued for the CPU
	BoundWorkers int     // bound threads/connections
	WaitQueue    int     // requests waiting for a worker slot
	WorkingSetMB float64 // combined working set of bound workers
}

// snapshot returns the interval telemetry and resets the flow accumulators.
func (t *tier) snapshot() TierSnapshot {
	// Background threads count as runnable whenever they hold credit: the
	// OS run queue cannot tell housekeeping from request work.
	bgRunnable := 0
	if t.cfg.BackgroundRate > 0 && !t.stopped {
		t.accrueBackground()
		if t.bgCredit > 0.01 {
			bgRunnable = t.cfg.BackgroundThreads
		}
	}
	// Under cache thrash, most queued workers are asleep on locks (S
	// state), not runnable: the OS-visible run queue shrinks exactly when
	// the machine is most overloaded.
	fgRunnable := t.cpuQueue.len()
	if t.cfg.LockBlockFrac > 0 && fgRunnable > 0 {
		miss, _ := t.contention()
		span := t.cfg.MaxMissRatio - t.cfg.BaseMissRatio
		blocked := 0.0
		if span > 0 {
			blocked = t.cfg.LockBlockFrac * clamp01((miss-t.cfg.BaseMissRatio)/span)
		}
		fgRunnable = int(float64(fgRunnable)*(1-blocked) + 0.5)
	}
	s := TierSnapshot{
		Tier:          t.id,
		BusySeconds:   t.acc.busySeconds,
		FgBusySeconds: t.acc.fgBusy,
		Instructions:  t.acc.instructions,
		Cycles:        t.acc.cycles,
		L2Refs:        t.acc.l2Refs,
		L2Misses:      t.acc.l2Misses,
		CtxSwitches:   t.acc.ctxSwitches,
		ITLBMisses:    t.acc.itlbMisses,
		Branches:      t.acc.branches,
		BranchMiss:    t.acc.branchMiss,
		Bursts:        t.acc.bursts,
		RunQueue:      fgRunnable + bgRunnable,
		BoundWorkers:  t.bound,
		WaitQueue:     t.waitQueue.len(),
		WorkingSetMB:  t.activeSet,
	}
	if t.acc.busySeconds > 0 {
		s.MeanDilation = t.acc.dilationSum / t.acc.busySeconds
		s.MeanMissRatio = t.acc.missSum / t.acc.busySeconds
	} else {
		s.MeanDilation = 1
		s.MeanMissRatio = t.cfg.BaseMissRatio
	}
	t.acc = intervalAccum{}
	return s
}
