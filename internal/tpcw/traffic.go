// Traffic shapes: deterministic load programs beyond the paper's ramps
// and spikes — diurnal curves, flash crowds ramping to very large EB
// populations, and slow-leak overloads — expressed in the existing
// Schedule grammar (piecewise-constant phases), plus a text grammar for
// scripting them from a flag, the traffic-domain mirror of the chaos
// fault-schedule grammar.
package tpcw

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Diurnal returns one day-like cycle: the EB population follows a
// raised-cosine curve from base (midnight) up to peak (midday) and back,
// quantized into steps equal-duration phases over period seconds.
func Diurnal(mix Mix, base, peak int, period float64, steps int) Schedule {
	if steps < 1 {
		steps = 1
	}
	phases := make([]Phase, 0, steps)
	for i := 0; i < steps; i++ {
		// Sample the curve at the step's midpoint.
		frac := (1 - math.Cos(2*math.Pi*(float64(i)+0.5)/float64(steps))) / 2
		ebs := base + int(math.Round(float64(peak-base)*frac))
		phases = append(phases, Phase{Mix: mix, EBs: ebs, Duration: period / float64(steps)})
	}
	return Schedule{Phases: phases}
}

// FlashCrowd returns a flash-crowd program: a geometric ramp from base to
// peak over ramp seconds in steps steps (geometric, so a promotion
// exploding to millions of browsers is a handful of doublings, not a
// linear crawl), a hold at peak, and a geometric decay back over decay
// seconds. Zero hold or decay skips that segment.
func FlashCrowd(mix Mix, base, peak int, ramp, hold, decay float64, steps int) Schedule {
	if steps < 1 {
		steps = 1
	}
	if base < 1 {
		base = 1 // geometric interpolation needs a positive floor
	}
	level := func(frac float64) int {
		return int(math.Round(float64(base) * math.Pow(float64(peak)/float64(base), frac)))
	}
	var phases []Phase
	if ramp > 0 {
		for i := 0; i < steps; i++ {
			frac := float64(i+1) / float64(steps)
			phases = append(phases, Phase{Mix: mix, EBs: level(frac), Duration: ramp / float64(steps)})
		}
	}
	if hold > 0 {
		phases = append(phases, Phase{Mix: mix, EBs: peak, Duration: hold})
	}
	if decay > 0 {
		for i := 0; i < steps; i++ {
			frac := 1 - float64(i+1)/float64(steps)
			phases = append(phases, Phase{Mix: mix, EBs: level(frac), Duration: decay / float64(steps)})
		}
	}
	return Schedule{Phases: phases}
}

// SlowLeak returns a slow-leak overload: the EB population creeps up from
// base at rate browsers per second for duration seconds, re-quantized
// every step seconds — the gradual fleet-side regression that never
// announces itself with a spike.
func SlowLeak(mix Mix, base int, rate, duration, step float64) Schedule {
	if step <= 0 || step > duration {
		step = duration
	}
	var phases []Phase
	for elapsed := 0.0; elapsed < duration; elapsed += step {
		d := step
		if remain := duration - elapsed; d > remain {
			d = remain
		}
		ebs := base + int(math.Round(rate*elapsed))
		if ebs < 0 {
			ebs = 0
		}
		phases = append(phases, Phase{Mix: mix, EBs: ebs, Duration: d})
	}
	return Schedule{Phases: phases}
}

// MixByName resolves a schedule-text mix name: the four canonical mixes,
// each optionally with a "-flash" suffix selecting its flash-crowd
// variant (FlashVariant).
func MixByName(name string) (Mix, bool) {
	base, flash := name, false
	if s, ok := strings.CutSuffix(name, "-flash"); ok {
		base, flash = s, true
	}
	var m Mix
	switch base {
	case "browsing":
		m = Browsing()
	case "shopping":
		m = Shopping()
	case "ordering":
		m = Ordering()
	case "unknown":
		m = Unknown()
	default:
		return Mix{}, false
	}
	if flash {
		m = FlashVariant(m)
	}
	return m, true
}

// ShapeKind names a traffic-shape clause type.
type ShapeKind int

// The traffic shapes of the clause grammar.
const (
	// ShapeSteady holds base browsers flat.
	ShapeSteady ShapeKind = iota + 1
	// ShapeRamp steps linearly from base to peak.
	ShapeRamp
	// ShapeDiurnal cycles base→peak→base on a raised cosine, repeating
	// every period seconds.
	ShapeDiurnal
	// ShapeFlash ramps geometrically from base to peak, holds, decays.
	ShapeFlash
	// ShapeLeak creeps up from base at rate browsers per second.
	ShapeLeak
)

// shapeNames maps kinds to their schedule-text spelling, in declaration
// order (index ShapeKind-1).
var shapeNames = [...]string{"steady", "ramp", "diurnal", "flash", "leak"}

// String returns the kind's schedule-text spelling.
func (k ShapeKind) String() string {
	if k >= 1 && int(k) <= len(shapeNames) {
		return shapeNames[k-1]
	}
	return fmt.Sprintf("ShapeKind(%d)", int(k))
}

// parseShapeKind resolves a schedule-text shape name.
func parseShapeKind(s string) (ShapeKind, error) {
	for i, name := range shapeNames {
		if s == name {
			return ShapeKind(i + 1), nil
		}
	}
	return 0, fmt.Errorf("tpcw: unknown traffic shape %q", s)
}

// Shape is one clause of a traffic program: a load shape run for Dur
// seconds on the named mix. Kinds ignore the parameters they do not use
// (see the ShapeKind docs); String prints every field so a clause
// round-trips through Parse exactly.
type Shape struct {
	Kind ShapeKind
	Mix  string  // canonical mix name (MixByName)
	Base int     // starting/floor EB population
	Peak int     // target population (ramp, diurnal, flash)
	Dur  float64 // clause duration, seconds
	// Period is the diurnal cycle length; zero means one cycle spanning
	// the whole clause.
	Period float64
	Steps  int     // quantization steps per ramp/cycle
	Rate   float64 // leak: browsers per second
	Hold   float64 // flash: seconds held at peak
	Decay  float64 // flash: seconds of geometric decay
	Think  float64 // think-time scale for the clause (zero means 1)
}

// String renders the shape in canonical schedule text. ParseTraffic of
// the result reproduces the shape exactly; the fuzz round-trip pins this.
func (sh Shape) String() string {
	return fmt.Sprintf("%s mix=%s base=%d peak=%d for=%s period=%s steps=%d rate=%s hold=%s decay=%s think=%s",
		sh.Kind, sh.Mix, sh.Base, sh.Peak, fmtSecs(sh.Dur), fmtSecs(sh.Period), sh.Steps,
		fmtSecs(sh.Rate), fmtSecs(sh.Hold), fmtSecs(sh.Decay), fmtSecs(sh.Think))
}

// fmtSecs renders a float in the shortest form that parses back to the
// identical value.
func fmtSecs(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// DefaultShape returns the canonical starting point for a clause of the
// given kind: the browsing mix, a modest base population, and the
// kind-specific parameter defaults. Dur stays zero — a program author
// always supplies for=. ParseTraffic builds every clause from this.
func DefaultShape(kind ShapeKind) Shape {
	sh := Shape{Kind: kind, Mix: "browsing", Base: 100, Steps: 8}
	switch kind {
	case ShapeRamp, ShapeDiurnal:
		sh.Peak = 1000
	case ShapeFlash:
		sh.Peak = 1000
		sh.Steps = 12
	case ShapeLeak:
		sh.Rate = 1
	}
	return sh
}

// Traffic is a scripted load program: shapes run consecutively, in
// clause order (unlike chaos faults, phases of load cannot overlap).
type Traffic struct {
	Shapes []Shape
}

// Validate checks every shape for well-formedness, returning one error
// per violation. It never panics, whatever the program holds.
func (tr Traffic) Validate() []error {
	var errs []error
	bad := func(i int, format string, args ...any) {
		errs = append(errs, fmt.Errorf("tpcw: traffic shape %d: %s", i, fmt.Sprintf(format, args...)))
	}
	if len(tr.Shapes) == 0 {
		return []error{errors.New("tpcw: traffic program has no shapes")}
	}
	for i, sh := range tr.Shapes {
		if sh.Kind < 1 || int(sh.Kind) > len(shapeNames) {
			bad(i, "unknown kind %d", int(sh.Kind))
			continue
		}
		if _, ok := MixByName(sh.Mix); !ok {
			bad(i, "unknown mix %q", sh.Mix)
		}
		// maxEBs keeps integer phase arithmetic far from overflow while
		// still allowing flash crowds of many millions of browsers.
		const maxEBs = 100_000_000
		durOK := PositiveFinite(sh.Dur)
		stepsOK := sh.Steps >= 1 && sh.Steps <= 10000
		if sh.Base < 0 || sh.Base > maxEBs {
			bad(i, "base %d outside [0,%d]", sh.Base, maxEBs)
		}
		if sh.Peak < 0 || sh.Peak > maxEBs {
			bad(i, "peak %d outside [0,%d]", sh.Peak, maxEBs)
		}
		if !durOK {
			bad(i, "bad duration %v", sh.Dur)
		}
		if math.IsNaN(sh.Period) || math.IsInf(sh.Period, 0) || sh.Period < 0 {
			bad(i, "bad period %v", sh.Period)
		}
		if !stepsOK {
			bad(i, "steps %d outside [1,10000]", sh.Steps)
		}
		if math.IsNaN(sh.Rate) || math.IsInf(sh.Rate, 0) || math.Abs(sh.Rate) > 1e6 {
			bad(i, "bad rate %v", sh.Rate)
		}
		if math.IsNaN(sh.Hold) || math.IsInf(sh.Hold, 0) || sh.Hold < 0 {
			bad(i, "bad hold %v", sh.Hold)
		}
		if math.IsNaN(sh.Decay) || math.IsInf(sh.Decay, 0) || sh.Decay < 0 {
			bad(i, "bad decay %v", sh.Decay)
		}
		if math.IsNaN(sh.Think) || math.IsInf(sh.Think, 0) || sh.Think < 0 {
			bad(i, "bad think scale %v", sh.Think)
		}
		// Kind-specific quantization: the per-phase quantum must stay a
		// positive float (a subnormal duration divided by the step count
		// underflows to zero-length phases) and a diurnal clause must not
		// expand to an unbounded number of cycles.
		if durOK && stepsOK {
			switch sh.Kind {
			case ShapeRamp:
				if sh.Dur/float64(sh.Steps) <= 0 {
					bad(i, "duration %v too small for %d steps", sh.Dur, sh.Steps)
				}
			case ShapeDiurnal:
				period := sh.Period
				if period <= 0 || period > sh.Dur {
					period = sh.Dur
				}
				if sh.Period > 0 && sh.Dur/sh.Period > 10000 {
					bad(i, "period %v packs over 10000 cycles into duration %v", sh.Period, sh.Dur)
				}
				if period/float64(sh.Steps) <= 0 {
					bad(i, "period %v too small for %d steps", period, sh.Steps)
				}
			case ShapeFlash:
				ramp := sh.Dur - sh.Hold - sh.Decay
				if ramp <= 0 {
					bad(i, "hold %v + decay %v leave no ramp inside duration %v", sh.Hold, sh.Decay, sh.Dur)
				} else if ramp/float64(sh.Steps) <= 0 {
					bad(i, "ramp %v too small for %d steps", ramp, sh.Steps)
				}
			}
		}
	}
	return errs
}

// Schedule expands a validated program into the piecewise-constant phase
// schedule the testbeds consume. Calling it on an unvalidated program
// may produce an invalid schedule but never panics.
func (tr Traffic) Schedule() Schedule {
	var out Schedule
	for _, sh := range tr.Shapes {
		mix, ok := MixByName(sh.Mix)
		if !ok {
			continue
		}
		var s Schedule
		switch sh.Kind {
		case ShapeSteady:
			s = Steady(mix, sh.Base, sh.Dur)
		case ShapeRamp:
			s = Ramp(mix, sh.Base, sh.Peak, sh.Steps, sh.Dur/float64(sh.Steps))
		case ShapeDiurnal:
			period := sh.Period
			if period <= 0 || period > sh.Dur {
				period = sh.Dur
			}
			for elapsed := 0.0; elapsed < sh.Dur; elapsed += period {
				s = Concat(s, Diurnal(mix, sh.Base, sh.Peak, period, sh.Steps))
			}
			s = s.Truncate(sh.Dur)
		case ShapeFlash:
			ramp := sh.Dur - sh.Hold - sh.Decay
			s = FlashCrowd(mix, sh.Base, sh.Peak, ramp, sh.Hold, sh.Decay, sh.Steps)
		case ShapeLeak:
			s = SlowLeak(mix, sh.Base, sh.Rate, sh.Dur, sh.Dur/float64(sh.Steps))
		default:
			continue
		}
		if sh.Think != 0 {
			for i := range s.Phases {
				s.Phases[i].ThinkScale = sh.Think
			}
		}
		out = Concat(out, s)
	}
	return out
}

// String renders the program in canonical text: one shape per clause, in
// program order, joined by "; ". ParseTraffic round-trips it.
func (tr Traffic) String() string {
	parts := make([]string, len(tr.Shapes))
	for i, sh := range tr.Shapes {
		parts[i] = sh.String()
	}
	return strings.Join(parts, "; ")
}

// ParseTraffic reads a traffic program from text. Clauses are separated
// by ";" or newlines; each clause is a shape kind followed by key=value
// fields:
//
//	steady mix=browsing base=400 for=300
//	flash mix=browsing-flash base=200 peak=2000000 for=120 hold=30 decay=30
//	diurnal mix=shopping base=100 peak=900 for=3600 period=600 steps=24
//	leak mix=ordering base=100 rate=2.5 for=600
//
// Fields: mix (canonical name, "-flash" suffix allowed; default
// browsing), base, peak, for (duration, seconds, required), period,
// steps, rate, hold, decay, think — each defaulting per DefaultShape.
// The result is Validated; ParseTraffic never panics on garbage (the
// traffic fuzz test pins this).
func ParseTraffic(text string) (Traffic, error) {
	var tr Traffic
	for _, clause := range strings.FieldsFunc(text, func(r rune) bool { return r == ';' || r == '\n' }) {
		fields := strings.Fields(clause)
		if len(fields) == 0 {
			continue
		}
		kind, err := parseShapeKind(fields[0])
		if err != nil {
			return Traffic{}, err
		}
		sh := DefaultShape(kind)
		sh.Dur = math.NaN() // required field: a clause must set for=

		for _, field := range fields[1:] {
			key, val, ok := strings.Cut(field, "=")
			if !ok {
				return Traffic{}, fmt.Errorf("tpcw: bad field %q in %q", field, clause)
			}
			switch key {
			case "mix":
				sh.Mix = val
			case "base":
				if sh.Base, err = strconv.Atoi(val); err != nil {
					return Traffic{}, fmt.Errorf("tpcw: bad base=%q: %v", val, err)
				}
			case "peak":
				if sh.Peak, err = strconv.Atoi(val); err != nil {
					return Traffic{}, fmt.Errorf("tpcw: bad peak=%q: %v", val, err)
				}
			case "for":
				if sh.Dur, err = strconv.ParseFloat(val, 64); err != nil {
					return Traffic{}, fmt.Errorf("tpcw: bad for=%q: %v", val, err)
				}
			case "period":
				if sh.Period, err = strconv.ParseFloat(val, 64); err != nil {
					return Traffic{}, fmt.Errorf("tpcw: bad period=%q: %v", val, err)
				}
			case "steps":
				if sh.Steps, err = strconv.Atoi(val); err != nil {
					return Traffic{}, fmt.Errorf("tpcw: bad steps=%q: %v", val, err)
				}
			case "rate":
				if sh.Rate, err = strconv.ParseFloat(val, 64); err != nil {
					return Traffic{}, fmt.Errorf("tpcw: bad rate=%q: %v", val, err)
				}
			case "hold":
				if sh.Hold, err = strconv.ParseFloat(val, 64); err != nil {
					return Traffic{}, fmt.Errorf("tpcw: bad hold=%q: %v", val, err)
				}
			case "decay":
				if sh.Decay, err = strconv.ParseFloat(val, 64); err != nil {
					return Traffic{}, fmt.Errorf("tpcw: bad decay=%q: %v", val, err)
				}
			case "think":
				if sh.Think, err = strconv.ParseFloat(val, 64); err != nil {
					return Traffic{}, fmt.Errorf("tpcw: bad think=%q: %v", val, err)
				}
			default:
				return Traffic{}, fmt.Errorf("tpcw: unknown field %q in %q", key, clause)
			}
		}
		if math.IsNaN(sh.Dur) {
			return Traffic{}, fmt.Errorf("tpcw: clause %q missing for=<seconds>", strings.TrimSpace(clause))
		}
		tr.Shapes = append(tr.Shapes, sh)
	}
	if errs := tr.Validate(); len(errs) > 0 {
		return Traffic{}, errors.Join(errs...)
	}
	return tr, nil
}
