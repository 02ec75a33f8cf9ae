package tpcw

import (
	"errors"
	"fmt"
	"math"
)

// Phase is one segment of a load schedule: for Duration seconds the RBE
// keeps EBs emulated browsers active, all drawing interactions from Mix.
// ThinkScale multiplies the browsers' mean think time for the phase (zero
// means 1): real client populations vary in engagement, so the offered
// request rate is not a fixed function of the session count.
type Phase struct {
	Mix        Mix
	EBs        int
	Duration   float64
	ThinkScale float64
}

// Schedule is a piecewise-constant load program for the RBE, mirroring the
// paper's workload construction (§IV.A): ramp-up workloads that gradually
// increase concurrent client sessions until overload, spike workloads with
// occasional extreme bursts, interleaved mixes that alternate between
// browsing and ordering, and unknown mixes.
type Schedule struct {
	Phases []Phase
}

// Validate checks that every phase is well formed.
func (s Schedule) Validate() error {
	if len(s.Phases) == 0 {
		return errors.New("tpcw: schedule has no phases")
	}
	for i, p := range s.Phases {
		if !PositiveFinite(p.Duration) {
			return fmt.Errorf("tpcw: phase %d has duration %v, want finite and positive", i, p.Duration)
		}
		if p.EBs < 0 {
			return fmt.Errorf("tpcw: phase %d has negative EBs %d", i, p.EBs)
		}
		if err := p.Mix.Validate(); err != nil {
			return fmt.Errorf("tpcw: phase %d: %w", i, err)
		}
	}
	return nil
}

// PositiveFinite is the rule every phase and traffic-clause duration
// obeys, and any other simulated duration should: above zero, not +Inf,
// not NaN.
func PositiveFinite(d float64) bool {
	return d > 0 && !math.IsInf(d, 1)
}

// Duration returns the schedule's total duration in seconds.
func (s Schedule) Duration() float64 {
	var d float64
	for _, p := range s.Phases {
		d += p.Duration
	}
	return d
}

// At returns the phase in effect at virtual time t. Times beyond the end of
// the schedule return the final phase.
func (s Schedule) At(t float64) Phase {
	var elapsed float64
	for _, p := range s.Phases {
		elapsed += p.Duration
		if t < elapsed {
			return p
		}
	}
	if len(s.Phases) == 0 {
		return Phase{}
	}
	return s.Phases[len(s.Phases)-1]
}

// Steady returns a single-phase schedule holding ebs browsers on mix for
// duration seconds.
func Steady(mix Mix, ebs int, duration float64) Schedule {
	return Schedule{Phases: []Phase{{Mix: mix, EBs: ebs, Duration: duration}}}
}

// Ramp returns a schedule that steps the number of EBs from start to end in
// steps equal increments, holding each level for stepDuration seconds —
// the paper's ramp-up training workload that gradually increases concurrent
// client sessions until the site is overloaded.
func Ramp(mix Mix, start, end, steps int, stepDuration float64) Schedule {
	if steps < 1 {
		steps = 1
	}
	phases := make([]Phase, 0, steps)
	for i := 0; i < steps; i++ {
		ebs := start
		if steps > 1 {
			ebs = start + (end-start)*i/(steps-1)
		}
		phases = append(phases, Phase{Mix: mix, EBs: ebs, Duration: stepDuration})
	}
	return Schedule{Phases: phases}
}

// Spike returns a schedule alternating between base load and an occasional
// extreme burst — the paper's spike training workload. Each cycle holds
// baseEBs for basePeriod seconds then spikeEBs for spikePeriod seconds,
// repeated cycles times.
func Spike(mix Mix, baseEBs, spikeEBs int, basePeriod, spikePeriod float64, cycles int) Schedule {
	if cycles < 1 {
		cycles = 1
	}
	phases := make([]Phase, 0, 2*cycles)
	for i := 0; i < cycles; i++ {
		phases = append(phases,
			Phase{Mix: mix, EBs: baseEBs, Duration: basePeriod},
			Phase{Mix: mix, EBs: spikeEBs, Duration: spikePeriod},
		)
	}
	return Schedule{Phases: phases}
}

// Truncate returns a copy of the schedule cut to its first at seconds. A
// phase straddling the cut is shortened to end exactly at it; at values
// beyond the schedule's duration return it unchanged and non-positive
// values return an empty (invalid) schedule.
func (s Schedule) Truncate(at float64) Schedule {
	var out Schedule
	var elapsed float64
	for _, p := range s.Phases {
		if elapsed >= at {
			break
		}
		if remain := at - elapsed; p.Duration > remain {
			p.Duration = remain
		}
		elapsed += p.Duration
		out.Phases = append(out.Phases, p)
	}
	return out
}

// ShiftAt returns a copy of the schedule whose traffic switches to mix at
// virtual time at, keeping every phase's EB population and think scale —
// a scripted mid-run mix shift, the workload-drift scenario where the
// request population changes character while the session count does not.
// A phase straddling the shift is split in two; non-positive at shifts the
// whole schedule and values beyond its duration return it unchanged.
func (s Schedule) ShiftAt(at float64, mix Mix) Schedule {
	var out Schedule
	var elapsed float64
	for _, p := range s.Phases {
		end := elapsed + p.Duration
		switch {
		case end <= at: // entirely before the shift
			out.Phases = append(out.Phases, p)
		case elapsed >= at: // entirely after
			p.Mix = mix
			out.Phases = append(out.Phases, p)
		default: // straddles: split at the shift point
			head, tail := p, p
			head.Duration = at - elapsed
			tail.Duration = end - at
			tail.Mix = mix
			out.Phases = append(out.Phases, head, tail)
		}
		elapsed = end
	}
	return out
}

// Concat joins schedules end to end.
func Concat(schedules ...Schedule) Schedule {
	var out Schedule
	for _, s := range schedules {
		out.Phases = append(out.Phases, s.Phases...)
	}
	return out
}
