// Package baseline implements the conventional overload detectors the
// paper argues against (§I, §II.A), as comparators for the evaluation:
//
//   - A single-PI threshold rule: the paper notes that thresholds for the
//     productivity index can be calibrated in offline stress testing, but
//     that "for online identification, the single PI metric is not enough
//     to identify system state because any change of PI can be either due
//     to the system capacity or the input load change."
//   - A response-time threshold rule, the classic admission-control
//     trigger ([12], [18] in the paper). It observes only *completed*
//     requests, so it inherits the request dead time the paper describes —
//     it fires late — and conservative thresholds (Blanquer et al. used
//     half the most restrictive guarantee) overestimate overload.
//   - A CPU-utilization threshold rule ([7]), which background
//     housekeeping and healthy saturation both fool.
package baseline

import (
	"errors"
	"sort"
)

// PIThreshold flags overload when the productivity index falls below a
// calibrated threshold (low yield per cost = unhealthy).
type PIThreshold struct {
	Threshold float64
}

// CalibratePIThreshold chooses the PI cut that maximizes balanced accuracy
// on a labeled training series — the "empirically in offline
// stress-testing" calibration of §II.A.
func CalibratePIThreshold(piSeries []float64, labels []int) (*PIThreshold, error) {
	if len(piSeries) != len(labels) {
		return nil, errors.New("baseline: series and labels differ in length")
	}
	if len(piSeries) == 0 {
		return nil, errors.New("baseline: empty training series")
	}
	var pos, neg int
	for _, l := range labels {
		if l == 1 {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return nil, errors.New("baseline: training series has a single class")
	}

	// Candidate cuts: midpoints between consecutive sorted PI values.
	sorted := make([]float64, len(piSeries))
	copy(sorted, piSeries)
	sort.Float64s(sorted)

	best := &PIThreshold{Threshold: sorted[0]}
	bestBA := -1.0
	try := func(cut float64) {
		var tp, tn int
		for i, v := range piSeries {
			pred := 0
			if v < cut {
				pred = 1
			}
			if pred == 1 && labels[i] == 1 {
				tp++
			}
			if pred == 0 && labels[i] == 0 {
				tn++
			}
		}
		ba := (float64(tp)/float64(pos) + float64(tn)/float64(neg)) / 2
		if ba > bestBA {
			bestBA = ba
			best.Threshold = cut
		}
	}
	// Boundary cuts are candidates too, so the rule never scores below a
	// constant predictor on its own training data.
	try(sorted[0] - 1)
	try(sorted[len(sorted)-1] + 1)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] > sorted[i-1] {
			try((sorted[i] + sorted[i-1]) / 2)
		}
	}
	return best, nil
}

// Predict flags overload when PI is below the calibrated threshold.
func (p *PIThreshold) Predict(piValue float64) int {
	if piValue < p.Threshold {
		return 1
	}
	return 0
}

// RTDetector is the conventional response-time trigger. It classifies the
// CURRENT window using the PREVIOUS window's observed mean response time:
// response times are only known once requests complete, which is exactly
// the dead-time problem the paper describes — by the time slow responses
// are observed, the overload has been underway for at least a window.
type RTDetector struct {
	// Threshold is the trigger in seconds. The conventional conservative
	// setting is half of the SLA (Blanquer et al.); zero selects 0.5.
	Threshold float64

	prevRT   float64
	havePrev bool
}

// Predict consumes the current window's mean response time but classifies
// on the previous window's (observability delay).
func (d *RTDetector) Predict(meanRT float64) int {
	th := d.Threshold
	if th <= 0 {
		th = 0.5
	}
	pred := 0
	if d.havePrev && d.prevRT > th {
		pred = 1
	}
	d.prevRT = meanRT
	d.havePrev = true
	return pred
}

// Reset clears the previous-window state.
func (d *RTDetector) Reset() {
	d.prevRT = 0
	d.havePrev = false
}

// UtilDetector is the CPU-utilization trigger used by utilization-driven
// resource managers.
type UtilDetector struct {
	// Threshold is the busy fraction above which the tier is declared
	// overloaded; zero selects 0.9.
	Threshold float64
}

// Predict flags overload when utilization exceeds the threshold.
func (d *UtilDetector) Predict(util float64) int {
	th := d.Threshold
	if th <= 0 {
		th = 0.9
	}
	if util > th {
		return 1
	}
	return 0
}

// DetectionLag measures how late a detector fires: for every sustained
// overload onset in truth (a 0→1 transition that holds for at least two
// windows), it finds the first window at or after the onset where preds is
// 1 and averages the distance in windows. Onsets the detector misses
// entirely (no detection before the episode ends) count as the episode
// length. The second return is the number of onsets.
func DetectionLag(truth, preds []int) (float64, int) {
	if len(truth) != len(preds) || len(truth) == 0 {
		return 0, 0
	}
	var lagSum float64
	onsets := 0
	for i := 1; i < len(truth); i++ {
		if truth[i] != 1 || truth[i-1] != 0 {
			continue
		}
		// Sustained onset?
		if i+1 < len(truth) && truth[i+1] != 1 {
			continue
		}
		// Episode end.
		end := i
		for end < len(truth) && truth[end] == 1 {
			end++
		}
		onsets++
		detected := end - i // default: missed entirely
		for j := i; j < end; j++ {
			if preds[j] == 1 {
				detected = j - i
				break
			}
		}
		lagSum += float64(detected)
	}
	if onsets == 0 {
		return 0, 0
	}
	return lagSum / float64(onsets), onsets
}
