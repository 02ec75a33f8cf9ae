package experiment

import (
	"errors"
	"fmt"
	"slices"

	"hpcap/internal/core"
	"hpcap/internal/cpu"
	"hpcap/internal/metrics"
	"hpcap/internal/osstat"
	"hpcap/internal/pi"
	"hpcap/internal/server"
	"hpcap/internal/tpcw"
)

// Collector noise levels: hardware counters sample precisely; /proc
// scraping is coarser.
const (
	hpcNoise = 0.02
	osNoise  = 0.05
)

// Collectors builds the OS-level and HPC-level collector of each tier slot
// of one simulated site — the one recipe behind every trace, replay and
// fleet site, so that equal (machines, seed) means equal sample streams:
// 512 MB on the app machine and 1024 MB on the database, the noise levels
// above, and a noise seed per collector derived from the site's.
func Collectors(machines [server.NumTiers]server.MachineConfig, seed int64) (osColl, hpcColl [server.NumTiers]metrics.Collector) {
	memMB := [server.NumTiers]float64{512, 1024}
	for tier := server.TierID(0); tier < server.NumTiers; tier++ {
		osColl[tier] = osstat.NewCollector(tier, memMB[tier], osNoise, seed*10+int64(tier))
		hpcColl[tier] = cpu.NewCollector(tier, machines[tier], hpcNoise, seed*10+int64(tier)+100)
	}
	return osColl, hpcColl
}

// MetricNames returns the metric layout the collectors produce at a
// level: the OS metrics, the hardware counters, or at the combined level
// both, OS first — the order of Window.Vectors, Trace.SecondVectors and
// a simulated site's combined sample.
func MetricNames(level metrics.Level) []string {
	switch level {
	case metrics.LevelOS:
		return osstat.MetricNames
	case metrics.LevelCombined:
		return slices.Concat(osstat.MetricNames, cpu.MetricNames)
	default:
		return cpu.MetricNames
	}
}

// Window is one aggregated 30-second observation of the whole testbed at
// both metric levels, with its offline ground truth.
type Window struct {
	// Truth is the window's health, utilization, bottleneck and overload
	// label; Classes feeds the workload-mix drift detector.
	pi.Truth
	// OS and HPC hold the full metric vector per tier.
	OS  [server.NumTiers][]float64
	HPC [server.NumTiers][]float64
	Mix string
}

// Trace is a generated run of the testbed.
type Trace struct {
	Windows []Window
	// Samples per tier of the HPC aggregation, stamped with their
	// window's health, for PI computations.
	HPCSamples [server.NumTiers][]metrics.Sample

	// Per-second recordings, populated when TraceConfig.RecordSeconds is
	// set: the raw 1-second collector vectors per tier and their
	// timestamps, aligned index-for-index. Replaying them through the
	// online serving layer reproduces Windows bit-for-bit.
	SecTimes []float64
	SecOS    [server.NumTiers][][]float64
	SecHPC   [server.NumTiers][][]float64
}

// Vectors returns the per-tier vectors of the window at the given level.
// LevelCombined concatenates OS and HPC vectors (OS first), the combined
// monitor proposed by the paper's conclusion.
func (w *Window) Vectors(level metrics.Level) [server.NumTiers][]float64 {
	switch level {
	case metrics.LevelOS:
		return w.OS
	case metrics.LevelCombined:
		var out [server.NumTiers][]float64
		for tier := range out {
			v := make([]float64, 0, len(w.OS[tier])+len(w.HPC[tier]))
			v = append(v, w.OS[tier]...)
			v = append(v, w.HPC[tier]...)
			out[tier] = v
		}
		return out
	default:
		return w.HPC
	}
}

// SecondVectors returns the recorded per-second vectors of one tier at the
// given level (nil unless the trace was generated with RecordSeconds).
// LevelCombined concatenates OS and HPC vectors (OS first), matching
// Window.Vectors.
func (t *Trace) SecondVectors(level metrics.Level, tier server.TierID) [][]float64 {
	switch level {
	case metrics.LevelOS:
		return t.SecOS[tier]
	case metrics.LevelCombined:
		out := make([][]float64, len(t.SecOS[tier]))
		for i := range out {
			v := make([]float64, 0, len(t.SecOS[tier][i])+len(t.SecHPC[tier][i]))
			v = append(v, t.SecOS[tier][i]...)
			v = append(v, t.SecHPC[tier][i]...)
			out[i] = v
		}
		return out
	default:
		return t.SecHPC[tier]
	}
}

// TraceConfig describes one trace generation run.
type TraceConfig struct {
	Server   server.Config
	Schedule tpcw.Schedule
	Window   int
	Warmup   int // windows dropped from the head
	Seed     int64
	// CollectOverhead charges the testbed the CPU cost of metric
	// collection itself (both levels), as a deployed monitor would.
	CollectOverhead bool
	// RecordSeconds keeps every raw 1-second collector vector in the
	// trace (SecTimes/SecOS/SecHPC) so the run can be replayed
	// sample-by-sample through the online serving layer.
	RecordSeconds bool
	// Topology is the site to simulate; nil means
	// server.TwoTierTopology(Server), the paper's two-tier testbed. With a
	// topology set, Server only supplies the collector machine models for
	// slots no pool occupies. The DAG's per-pool snapshots are folded to
	// the two tier slots, so the rest of the pipeline (collectors, windows,
	// labeling) is topology-blind. Seed comes from Seed either way.
	Topology *server.TopologyConfig
}

// withDefaults resolves a zero Window to the paper's 30 seconds.
func (c TraceConfig) withDefaults() TraceConfig {
	if c.Window <= 0 {
		c.Window = metrics.DefaultWindow
	}
	return c
}

// Validate applies defaults first, then returns one error per violated
// constraint, each wrapping core.ErrBadConfig. The nested server and
// schedule configurations are validated too, their violations re-wrapped
// so one errors.Is check covers the whole generation configuration.
func (c TraceConfig) Validate() []error {
	c = c.withDefaults()
	var errs []error
	if c.Warmup < 0 {
		errs = append(errs, fmt.Errorf("experiment: %w: Warmup %d is negative", core.ErrBadConfig, c.Warmup))
	}
	if err := c.Schedule.Validate(); err != nil {
		errs = append(errs, fmt.Errorf("experiment: %w: %v", core.ErrBadConfig, err))
	}
	for _, err := range c.Server.Validate() {
		errs = append(errs, fmt.Errorf("experiment: %w: %v", core.ErrBadConfig, err))
	}
	if c.Topology != nil {
		for _, err := range c.Topology.Validate() {
			errs = append(errs, fmt.Errorf("experiment: %w: %v", core.ErrBadConfig, err))
		}
	}
	return errs
}

// recordingCollector wraps a collector and keeps a copy of every vector it
// produces, so a generated trace can later be replayed one second at a
// time.
type recordingCollector struct {
	metrics.Collector
	rec [][]float64
}

func (r *recordingCollector) CollectTo(dst []float64, s server.Snapshot, dt float64) []float64 {
	v := r.Collector.CollectTo(dst, s, dt)
	r.rec = append(r.rec, append([]float64(nil), v...))
	return v
}

// Generate runs the testbed under the schedule and collects the labeled
// window trace at both metric levels.
func Generate(cfg TraceConfig) (*Trace, error) {
	cfg = cfg.withDefaults()
	if errs := cfg.Validate(); len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	topo := server.TwoTierTopology(cfg.Server)
	if cfg.Topology != nil {
		topo = *cfg.Topology
	}
	topo.Seed = cfg.Seed
	tb, err := server.NewDAGTestbed(topo, cfg.Schedule)
	if err != nil {
		return nil, err
	}
	if cfg.CollectOverhead {
		// Every replica machine runs the collectors, so every pool is
		// charged (in declaration order, keeping the event sequence
		// deterministic).
		for _, pc := range topo.Pools {
			tb.AddPeriodicLoad(pc.Name, 1.0, metrics.HPCSampleCost+metrics.OSSampleCost)
		}
	}
	if err := tb.Start(); err != nil {
		return nil, err
	}

	type tierCollectors struct {
		os  *metrics.Aggregator
		hpc *metrics.Aggregator
	}
	var coll [server.NumTiers]tierCollectors
	var recOS, recHPC [server.NumTiers]*recordingCollector
	osColls, hpcColls := Collectors(topo.SlotMachines(cfg.Server), cfg.Seed)
	for tier := server.TierID(0); tier < server.NumTiers; tier++ {
		osColl, hpcColl := osColls[tier], hpcColls[tier]
		if cfg.RecordSeconds {
			recOS[tier] = &recordingCollector{Collector: osColl}
			recHPC[tier] = &recordingCollector{Collector: hpcColl}
			osColl, hpcColl = recOS[tier], recHPC[tier]
		}
		osAgg, err := metrics.NewAggregator(osColl, cfg.Window)
		if err != nil {
			return nil, err
		}
		hpcAgg, err := metrics.NewAggregator(hpcColl, cfg.Window)
		if err != nil {
			return nil, err
		}
		coll[tier] = tierCollectors{os: osAgg, hpc: hpcAgg}
	}

	trace := &Trace{}

	truth, err := pi.NewWindow(cfg.Window)
	if err != nil {
		return nil, err
	}
	total := cfg.Schedule.Duration()
	var elapsed float64
	for elapsed < total {
		snap := tb.RunIntervalLegacy(1)
		elapsed++
		if cfg.RecordSeconds {
			trace.SecTimes = append(trace.SecTimes, snap.Time)
		}
		tr, closed := truth.Add(snap)
		w := Window{Truth: tr}
		for tier := server.TierID(0); tier < server.NumTiers; tier++ {
			osSample, osDone := coll[tier].os.Push(snap, 1)
			hpcSample, hpcDone := coll[tier].hpc.Push(snap, 1)
			if osDone != closed || hpcDone != closed {
				return nil, fmt.Errorf("experiment: aggregators out of lockstep")
			}
			if !closed {
				continue
			}
			w.OS[tier] = osSample.Values
			w.HPC[tier] = hpcSample.Values
			hpcSample.Throughput, hpcSample.ArrivalRate = tr.Throughput, tr.ArrivalRate
			hpcSample.MeanRT, hpcSample.ActiveEBs = tr.MeanRT, tr.ActiveEBs
			trace.HPCSamples[tier] = append(trace.HPCSamples[tier], hpcSample)
		}
		if !closed {
			continue
		}
		w.Mix = cfg.Schedule.At(w.Time - float64(cfg.Window)/2).Mix.Name
		trace.Windows = append(trace.Windows, w)
	}

	if cfg.RecordSeconds {
		for tier := server.TierID(0); tier < server.NumTiers; tier++ {
			trace.SecOS[tier] = recOS[tier].rec
			trace.SecHPC[tier] = recHPC[tier].rec
		}
	}
	if cfg.Warmup > 0 && cfg.Warmup < len(trace.Windows) {
		trace.Windows = trace.Windows[cfg.Warmup:]
		for tier := range trace.HPCSamples {
			trace.HPCSamples[tier] = trace.HPCSamples[tier][cfg.Warmup:]
		}
		// Drop the matching head of the per-second recordings so a replay
		// sees exactly the windows the trace kept.
		if skip := cfg.Warmup * cfg.Window; skip < len(trace.SecTimes) {
			trace.SecTimes = trace.SecTimes[skip:]
			for tier := server.TierID(0); tier < server.NumTiers; tier++ {
				trace.SecOS[tier] = trace.SecOS[tier][skip:]
				trace.SecHPC[tier] = trace.SecHPC[tier][skip:]
			}
		}
	}
	return trace, nil
}

// frac scales a knee by a fraction, never below 1 EB.
func frac(knee int, f float64) int {
	v := int(float64(knee)*f + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

// Workload bundles a traffic mix with its measured saturation knees: the EB
// population at which the mix itself saturates the site, and the (higher)
// population at which its flash-crowd variant — the same traffic class with
// catalog-heavy queries damped — saturates it. Knees come from offline
// stress testing (FindKnee), mirroring how the paper calibrates thresholds
// empirically.
type Workload struct {
	Mix       tpcw.Mix
	Knee      int
	Flash     tpcw.Mix
	FlashKnee int
}

// DefineWorkload measures both knees of a mix on the given server
// configuration.
func DefineWorkload(cfg server.Config, mix tpcw.Mix, s Scale) (Workload, error) {
	knee, err := FindKnee(cfg, mix, s.KneeLo, s.KneeHi)
	if err != nil {
		return Workload{}, fmt.Errorf("experiment: knee of %s: %w", mix.Name, err)
	}
	flash := tpcw.FlashVariant(mix)
	flashKnee, err := FindKnee(cfg, flash, s.KneeLo, s.KneeHi*3)
	if err != nil {
		return Workload{}, fmt.Errorf("experiment: knee of %s: %w", flash.Name, err)
	}
	return Workload{Mix: mix, Knee: knee, Flash: flash, FlashKnee: flashKnee}, nil
}

// TrainingSchedule composes the paper's training workload for one mix
// around its measured saturation knee: a coarse ramp-up, a fine ramp
// through the gray zone, plateaus just below and just above saturation,
// flash-crowd phases of light-query volume, a recovery, spike cycles of
// occasional extreme bursts, and a deep-overload dwell (§IV.A).
func TrainingSchedule(w Workload, s Scale) tpcw.Schedule {
	phase := func(f float64, units float64) tpcw.Schedule {
		return tpcw.Steady(w.Mix, frac(w.Knee, f), units*s.StepSec)
	}
	return tpcw.Concat(
		tpcw.Ramp(w.Mix, frac(w.Knee, 0.30), frac(w.Knee, 0.75), 4, s.StepSec),
		tpcw.Ramp(w.Mix, frac(w.Knee, 0.80), frac(w.Knee, 1.25), 10, s.StepSec),
		phase(0.92, 3),
		phase(1.08, 3),
		// Flash crowd: heavy volume of light requests, busy but healthy.
		tpcw.Steady(w.Flash, frac(w.FlashKnee, 0.90), 3*s.StepSec),
		// Think-time variation decouples offered load from the session
		// count: a large disengaged population stays healthy, a small
		// eager one overloads.
		tpcw.Schedule{Phases: []tpcw.Phase{
			{Mix: w.Mix, EBs: frac(w.Knee, 1.8), Duration: 2 * s.StepSec, ThinkScale: 2.2},
			{Mix: w.Mix, EBs: frac(w.Knee, 0.62), Duration: 2 * s.StepSec, ThinkScale: 0.48},
		}},
		phase(0.60, 2),
		tpcw.Spike(w.Mix, frac(w.Knee, 0.50), frac(w.Knee, 1.50), 2*s.StepSec, s.StepSec, 2),
		phase(1.60, 2),
	)
}

// TestSchedule composes a test workload for one mix: ramps, near-knee
// plateaus, flash-crowd phases (including one just past the flash knee — a
// genuinely hard "excessive load" overload), a recovery, and a spike, with
// a different composition from the training runs.
func TestSchedule(w Workload, s Scale) tpcw.Schedule {
	phase := func(f float64, units float64) tpcw.Schedule {
		return tpcw.Steady(w.Mix, frac(w.Knee, f), units*s.StepSec)
	}
	return tpcw.Concat(
		tpcw.Ramp(w.Mix, frac(w.Knee, 0.40), frac(w.Knee, 1.20), 6, s.StepSec),
		phase(0.88, 3),
		phase(1.35, 2),
		tpcw.Steady(w.Flash, frac(w.FlashKnee, 0.92), 2*s.StepSec),
		tpcw.Steady(w.Flash, frac(w.FlashKnee, 1.06), s.StepSec),
		tpcw.Schedule{Phases: []tpcw.Phase{
			{Mix: w.Mix, EBs: frac(w.Knee, 1.6), Duration: s.StepSec, ThinkScale: 2.0},
			{Mix: w.Mix, EBs: frac(w.Knee, 0.7), Duration: s.StepSec, ThinkScale: 0.52},
		}},
		phase(0.55, 2),
		tpcw.Spike(w.Mix, frac(w.Knee, 0.60), frac(w.Knee, 1.45), 2*s.StepSec, s.StepSec, 1),
		phase(1.15, 2),
	)
}

// InterleavedSchedule alternates browsing and ordering below and above
// their respective knees — the paper's bottleneck-shifting test, in which
// any interval carries either mix and the bottleneck moves between tiers.
func InterleavedSchedule(browsing, ordering Workload, s Scale) tpcw.Schedule {
	period := 4 * s.StepSec
	var phases []tpcw.Phase
	fracs := []float64{0.85, 1.25, 0.7, 1.15}
	for i := 0; i < s.InterleavePhases; i++ {
		f := fracs[(i/2)%len(fracs)]
		w := browsing
		if i%2 == 1 {
			w = ordering
		}
		phases = append(phases, tpcw.Phase{Mix: w.Mix, EBs: frac(w.Knee, f), Duration: period})
	}
	return tpcw.Schedule{Phases: phases}
}

// MixShiftSchedule is the workload-drift scenario: browsing traffic cycling
// below and above its knee for the first half of the run, after which the
// live population's mix is scripted over to ordering (via ShiftAt, sessions
// surviving the switch) while the same cycle repeats at the ordering knee.
// A monitor trained on browsing alone sees its accuracy decay in the second
// half — the trigger for the adaptive retrain-and-swap lifecycle.
func MixShiftSchedule(browsing, ordering Workload, s Scale) tpcw.Schedule {
	period := 2 * s.StepSec
	fracs := []float64{0.8, 1.25, 0.7, 1.2, 0.9, 1.3}
	// The shifted regime runs twice as long as the browsing lead-in: the
	// lifecycle needs shifted windows both to retrain on and to serve
	// afterwards.
	var phases []tpcw.Phase
	for i := 0; i < 3*len(fracs); i++ {
		w := browsing
		if i >= len(fracs) {
			w = ordering
		}
		phases = append(phases, tpcw.Phase{
			Mix:      browsing.Mix,
			EBs:      frac(w.Knee, fracs[i%len(fracs)]),
			Duration: period,
		})
	}
	shiftAt := float64(len(fracs)) * period
	return tpcw.Schedule{Phases: phases}.ShiftAt(shiftAt, ordering.Mix)
}
