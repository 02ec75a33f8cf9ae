// Package hpcap is an online capacity measurement system for multi-tier
// websites driven by hardware performance counter metrics — a faithful
// reproduction of Rao and Xu, "Online Measurement of the Capacity of
// Multi-tier Websites Using Hardware Performance Counters" (ICDCS 2008) —
// together with the evaluation substrate the paper used: a simulated
// two-tier TPC-W testbed, NetBurst-style counter synthesis, a
// Sysstat-style OS metric collector, and from-scratch implementations of
// the four synopsis learners.
//
// The package is a small facade over the internal packages: it exports
// exactly the names the runnable programs under examples/ and the
// root benchmarks use. The four layers they touch are:
//
//   - Workload and testbed: build a TPC-W Schedule from the Browsing,
//     Shopping and Ordering mixes with Steady and Concat, and run it on
//     the simulated two-tier site with NewTestbed.
//   - Metrics: NewHPCCollector and NewOSCollector read a tier's counter
//     and OS views from each testbed interval; NewAggregator folds the
//     1-second samples into MetricSample windows.
//   - Capacity monitor and serving: a Lab trains a Monitor (per-workload,
//     per-tier synopses plus the two-level coordinated predictor, tuned by
//     CoordinatorConfig), and NewServingPipeline streams live per-tier
//     StreamSamples for any number of sites through it, publishing one
//     Decision per window — resilient to late, missing and NaN samples,
//     with optional counter fusion (ServingConfig.Fuse).
//   - Experiments: a Lab regenerates the paper's tables and figures at
//     QuickScale, and FindKnee locates a mix's saturation knee.
//
// Failures surface as wrapped sentinel errors — ErrUntrained,
// ErrDimensionMismatch, ErrBadConfig — so callers branch with errors.Is
// rather than string matching.
//
// See the runnable programs under examples/, the experiment CLI at
// cmd/capbench, and the serving daemon at cmd/capserved.
package hpcap

import (
	"hpcap/internal/core"
	"hpcap/internal/cpu"
	"hpcap/internal/experiment"
	"hpcap/internal/fuse"
	"hpcap/internal/metrics"
	"hpcap/internal/osstat"
	"hpcap/internal/predictor"
	"hpcap/internal/serve"
	"hpcap/internal/server"
	"hpcap/internal/tpcw"
)

// Typed sentinel errors; every failure returned by the monitor, its
// sessions, and the serving pipeline wraps one of these.
var (
	// ErrUntrained marks prediction attempted through an untrained
	// Monitor or a session over one.
	ErrUntrained = core.ErrUntrained
	// ErrDimensionMismatch marks an observation whose per-tier vectors do
	// not match the metric layout the monitor was trained on.
	ErrDimensionMismatch = core.ErrDimensionMismatch
	// ErrBadConfig marks invalid training or serving configuration.
	ErrBadConfig = core.ErrBadConfig
)

// Workload modeling (TPC-W).
type (
	// Mix is a TPC-W traffic mix over the 14 interaction types.
	Mix = tpcw.Mix
	// Phase is one segment of a load schedule.
	Phase = tpcw.Phase
	// Schedule is a piecewise load program for the emulated browsers.
	Schedule = tpcw.Schedule
)

// The TPC-W traffic mixes and schedule constructors.
var (
	Browsing = tpcw.Browsing
	Shopping = tpcw.Shopping
	Ordering = tpcw.Ordering
	Steady   = tpcw.Steady
	Concat   = tpcw.Concat
)

// Testbed simulation.
type (
	// ServerConfig configures the simulated two-tier site.
	ServerConfig = server.Config
	// TierConfig configures one tier.
	TierConfig = server.TierConfig
	// Testbed is the simulated two-tier website under TPC-W load.
	Testbed = server.Testbed
	// TierID names a tier (TierApp, TierDB).
	TierID = server.TierID
	// AdmissionState is what an admission controller observes.
	AdmissionState = server.AdmissionState
)

// Tiers of the testbed.
const (
	TierApp  = server.TierApp
	TierDB   = server.TierDB
	NumTiers = server.NumTiers
)

// DefaultServerConfig returns the calibrated two-tier testbed
// configuration (app ≈ Pentium 4 Tomcat, DB ≈ Pentium D MySQL).
var DefaultServerConfig = server.DefaultConfig

// NewTestbed builds the simulated two-tier website under the given
// schedule.
var NewTestbed = server.NewTestbed

// Metric levels: the hardware counters the paper proposes, and their
// combination with the OS metrics (the paper's future-work extension).
const (
	LevelHPC      = metrics.LevelHPC
	LevelCombined = metrics.LevelCombined
)

// Metric collection.
type (
	// HPCCollector synthesizes the hardware-performance-counter view of
	// a tier (the PerfCtr substitute).
	HPCCollector = cpu.Collector
	// MetricSample is one aggregated window of metrics.
	MetricSample = metrics.Sample
)

// Collector constructors, window aggregation, and the counter names.
var (
	NewHPCCollector = cpu.NewCollector
	NewOSCollector  = osstat.NewCollector
	NewAggregator   = metrics.NewAggregator
	HPCMetricNames  = cpu.MetricNames
)

// DefaultWindow is the paper's 30-second aggregation window.
const DefaultWindow = metrics.DefaultWindow

// Capacity monitor (the paper's contribution).
type (
	// Monitor is the trained two-level coordinated capacity measurement
	// system. A trained Monitor is safe for concurrent use; each
	// concurrent prediction stream takes its own session (NewSession).
	Monitor = core.Monitor
	// Observation is one window of per-tier metric vectors.
	Observation = core.Observation
	// CoordinatorConfig tunes the two-level predictor (h, δ, scheme).
	CoordinatorConfig = predictor.Config
)

// Tie-break schemes inside the predictor's ±δ band.
const (
	Optimistic  = predictor.Optimistic
	Pessimistic = predictor.Pessimistic
)

// Online serving layer.
type (
	// ServingConfig tunes a serving pipeline (window, staleness budget,
	// counter fusion, decision callback).
	ServingConfig = serve.Config
	// StreamSample is one 1-second metric vector from one tier of a
	// monitored site.
	StreamSample = serve.Sample
	// Decision is the pipeline's output for one completed window.
	Decision = serve.Decision
	// SiteStats is a snapshot of one site's serving counters.
	SiteStats = serve.SiteStats
	// FuseConfig tunes the optional Bayesian counter-fusion stage, which
	// imputes NaN and stuck counters from physically coupled neighbors
	// and gives each decision a confidence.
	FuseConfig = fuse.Config
)

// NewServingPipeline builds the online serving pipeline over a trained
// monitor; DefaultFuseConfig is the tuned fusion stage for
// ServingConfig.Fuse.
var (
	NewServingPipeline = serve.NewPipeline
	DefaultFuseConfig  = fuse.DefaultConfig
)

// Experiments (the paper's evaluation).
type (
	// Lab caches workloads and traces shared by the experiments.
	Lab = experiment.Lab
	// TestKind names one of the four test workloads.
	TestKind = experiment.TestKind
)

// The four test workloads of the evaluation.
const (
	TestBrowsing    = experiment.TestBrowsing
	TestOrdering    = experiment.TestOrdering
	TestInterleaved = experiment.TestInterleaved
	TestUnknown     = experiment.TestUnknown
)

// Experiment entry points.
var (
	NewLab     = experiment.NewLab
	QuickScale = experiment.QuickScale
	FindKnee   = experiment.FindKnee
)
