// Package experiment reproduces every table and figure of the paper's
// evaluation (§V) on the simulated testbed: trace generation with the
// paper's training and testing workloads, synopsis accuracy grids (Table
// I), the PI-vs-throughput time series (Figure 3), coordinated prediction
// and bottleneck identification accuracy (Figure 4), learner build/decision
// timing (§V.B), metric-collection overhead (§V.D), and the history-length
// and tie-break ablation (§V.C).
//
// Workload schedules are expressed relative to each mix's measured
// saturation knee (found by offline stress testing, as the paper calibrates
// its thresholds), so traces are dense in the ambiguous region around
// saturation where classification is genuinely hard.
package experiment

// Scale sets the size of generated traces. Full approximates the paper's
// multi-hour runs; Quick keeps unit tests and benchmarks fast while
// preserving every qualitative feature (both overload regimes, gray-zone
// windows near the knee, transitions in both directions).
type Scale struct {
	Name string
	// StepSec is the base phase duration; schedules are small multiples
	// of it.
	StepSec float64
	// Window is the aggregation window in seconds (the paper uses 30).
	Window int
	// WarmupWindows dropped from the head of each trace.
	WarmupWindows int
	// InterleavePhases is the number of mix alternations in the
	// bottleneck-shifting test workload.
	InterleavePhases int
	// KneeBracket bounds the saturation-knee search in EBs.
	KneeLo, KneeHi int
}

// FullScale approximates the paper's trace sizes (tens of minutes of
// simulated time per trace; a few seconds of wall time each).
func FullScale() Scale {
	return Scale{
		Name:             "full",
		StepSec:          120,
		Window:           30,
		WarmupWindows:    2,
		InterleavePhases: 8,
		KneeLo:           40,
		KneeHi:           1400,
	}
}

// ScaleByName resolves a -scale flag spelling: "quick" or "full".
func ScaleByName(name string) (Scale, bool) {
	switch name {
	case "quick":
		return QuickScale(), true
	case "full":
		return FullScale(), true
	default:
		return Scale{}, false
	}
}

// QuickScale is for tests and benchmarks: the same shapes at half the
// dwell time.
func QuickScale() Scale {
	return Scale{
		Name:             "quick",
		StepSec:          60,
		Window:           30,
		WarmupWindows:    1,
		InterleavePhases: 6,
		KneeLo:           40,
		KneeHi:           1400,
	}
}
