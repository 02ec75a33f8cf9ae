// Package metrics connects the testbed to the learning pipeline: it defines
// the collector interface shared by the OS-level and hardware-counter-level
// collectors, the per-sample collection costs used by the overhead
// experiment (§V.D), and the aggregation of 1-second metric vectors into
// the 30-second windows from which the paper builds training instances
// (§IV.A). A window's application-level health and overload label are not
// aggregated here: internal/pi derives them from the testbed snapshots.
package metrics

import (
	"fmt"

	"hpcap/internal/server"
)

// Level distinguishes the two metric sources compared throughout the paper.
type Level int

// Metric levels. LevelCombined concatenates the OS and hardware counter
// vectors — the extension the paper's conclusion proposes for capturing
// I/O-related problems alongside CPU-level ones. The concatenation order
// is fixed: the 64 OS metrics first, then the 19 hardware counters —
// every consumer of a combined vector (training layouts, the serving
// pipeline, the fusion stage's factor graph) indexes against this order,
// and internal/fuse pins it with a layout test.
const (
	LevelOS Level = iota + 1
	LevelHPC
	LevelCombined
)

// String returns the level's name as used in the paper's tables.
func (l Level) String() string {
	switch l {
	case LevelOS:
		return "OS"
	case LevelHPC:
		return "HPC"
	case LevelCombined:
		return "OS+HPC"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// LevelByName resolves a -level flag spelling: "os", "hpc" or "combined".
func LevelByName(name string) (Level, bool) {
	switch name {
	case "os":
		return LevelOS, true
	case "hpc":
		return LevelHPC, true
	case "combined":
		return LevelCombined, true
	default:
		return 0, false
	}
}

// Levels returns the metric levels in presentation order.
func Levels() []Level { return []Level{LevelOS, LevelHPC, LevelCombined} }

// Collector converts one interval of testbed telemetry into a metric
// vector. Both osstat.Collector and cpu.Collector satisfy it. CollectTo
// writes the vector into dst (reallocating only when dst is too small)
// and returns it, so a caller that feeds the same scratch buffer back
// every second — the aggregator does — pays no vector allocation.
type Collector interface {
	Tier() server.TierID
	Names() []string
	CollectTo(dst []float64, s server.Snapshot, dt float64) []float64
}

// Per-sample CPU cost (normalized demand seconds) of reading each metric
// source once. Hardware counters only require reading a handful of MSRs;
// Sysstat walks and parses large swaths of /proc. These reproduce the
// paper's measured collection overheads: under 0.5% for counters versus
// about 4% for OS metrics.
const (
	HPCSampleCost = 0.002
	OSSampleCost  = 0.018
)

// DefaultWindow is the paper's aggregation window: average statistics over
// a 30-second interval form one instance.
const DefaultWindow = 30

// Sample is one aggregated window: the mean metric vector, and the
// application-level health observed over the same window (used for PI
// selection and offline labeling, never shown to the classifiers). The
// aggregator fills only Time and Values; the health comes from the
// window's ground truth (pi.Window).
type Sample struct {
	Time        float64 // window end, virtual seconds
	Values      []float64
	Throughput  float64 // completed requests per second
	ArrivalRate float64
	MeanRT      float64 // mean response time over the window, seconds
	ActiveEBs   int
}

// Aggregator folds per-second collector vectors into window Samples.
type Aggregator struct {
	collector Collector
	scratch   []float64
	window    int

	count    int
	sum      []float64
	lastTime float64
}

// NewAggregator returns an aggregator emitting one Sample every window
// pushes. window must be positive.
func NewAggregator(c Collector, window int) (*Aggregator, error) {
	if window <= 0 {
		return nil, fmt.Errorf("metrics: window must be positive, got %d", window)
	}
	return &Aggregator{
		collector: c,
		window:    window,
		sum:       make([]float64, len(c.Names())),
	}, nil
}

// NewValuesAggregator returns an aggregator for pre-collected vectors of a
// fixed dimension, fed through PushValues — the serving layer's samples
// arrive as raw values, so it needs no Collector behind the window
// arithmetic. dim and window must be positive.
func NewValuesAggregator(dim, window int) (*Aggregator, error) {
	if window <= 0 {
		return nil, fmt.Errorf("metrics: window must be positive, got %d", window)
	}
	if dim <= 0 {
		return nil, fmt.Errorf("metrics: dim must be positive, got %d", dim)
	}
	return &Aggregator{
		window: window,
		sum:    make([]float64, dim),
	}, nil
}

// Names returns the metric names of the underlying collector (nil for a
// values-only aggregator).
func (a *Aggregator) Names() []string {
	if a.collector == nil {
		return nil
	}
	return a.collector.Names()
}

// Push feeds one interval of telemetry (of length dt seconds). When the
// window fills, it returns the aggregated Sample and true, and resets.
func (a *Aggregator) Push(s server.Snapshot, dt float64) (Sample, bool) {
	a.scratch = a.collector.CollectTo(a.scratch, s, dt)
	return a.push(a.scratch, s.Time)
}

// PushValues folds one pre-collected 1-second vector into the window,
// bypassing the collector: identical arithmetic to Push. values must have
// the aggregator's dimension; the slice is read during the call and not
// retained.
func (a *Aggregator) PushValues(time float64, values []float64) (Sample, bool) {
	return a.push(values, time)
}

// push is the shared accumulate-and-maybe-emit tail of Push/PushValues.
// When the window fills it emits the mean vector, dividing by the samples
// pushed, and resets.
func (a *Aggregator) push(vec []float64, time float64) (Sample, bool) {
	for i, v := range vec {
		a.sum[i] += v
	}
	a.count++
	a.lastTime = time
	if a.count < a.window {
		return Sample{}, false
	}
	out := Sample{Time: a.lastTime, Values: make([]float64, len(a.sum))}
	for i, v := range a.sum {
		out.Values[i] = v / float64(a.count)
		a.sum[i] = 0
	}
	a.count = 0
	return out, true
}
