// Package hpcap is an online capacity measurement system for multi-tier
// websites driven by hardware performance counter metrics — a faithful
// reproduction of Rao and Xu, "Online Measurement of the Capacity of
// Multi-tier Websites Using Hardware Performance Counters" (ICDCS 2008) —
// together with the complete evaluation substrate the paper used: a
// simulated two-tier TPC-W testbed, NetBurst-style counter synthesis, a
// Sysstat-style OS metric collector, and from-scratch implementations of
// the four synopsis learners (linear regression, naive Bayes, TAN, SVM).
//
// The package is a curated facade over the internal packages. The four
// layers a user touches are:
//
//   - Workload and testbed: build a tpcw schedule (Browsing/Shopping/
//     Ordering mixes, ramps, spikes, interleavings, diurnal cycles, flash
//     crowds, slow leaks — or a scripted TrafficProgram) and run it on
//     the simulated two-tier site with NewTestbed, or on an arbitrary
//     tier DAG of replica pools with NewDAGTestbed, whose bottleneck pool
//     the registry Autoscaler can grow and shrink online.
//   - Capacity monitor: train a Monitor (per-workload, per-tier performance
//     synopses plus the two-level coordinated predictor) on labeled window
//     traces, then predict through per-stream MonitorSessions for online
//     overload/bottleneck inference.
//   - Serving: a ServingPipeline ingests live per-tier 1-second samples
//     for any number of sites, windows them, fans prediction across
//     per-site sessions, publishes Decisions, and can gate a testbed's
//     admission control — resilient to late, missing, and NaN samples.
//     An optional Bayesian counter-fusion stage (ServingConfig.Fuse)
//     de-noises faulted streams in place: NaN and stuck counters are
//     imputed from physically coupled neighbors, and each decision
//     carries a confidence the lifecycle guard honors.
//     For distributed deployments, FrameSender (cmd/capagent) ships
//     sequenced sample frames over TCP to a FrameServer (cmd/capserved)
//     that write-ahead logs every accepted frame before ingest, so a
//     crashed daemon replays back to its exact pre-crash decision state.
//   - Experiments: a Lab regenerates every table and figure of the paper's
//     evaluation (Table I, Figures 3-4, the timing, overhead and ablation
//     studies) at QuickScale or FullScale.
//
// # Conventions
//
// A trained Monitor is immutable shared state whose synopses are flat
// scoring tables; every concurrent prediction stream takes its own
// MonitorSession via Monitor.NewSession. MonitorSession.PredictInto is the
// allocation-free per-window decision (Predict the same decision into a
// fresh Prediction), and Monitor.DecideAll decides whole batches of
// sessions in one pass.
//
// Failures surface as wrapped sentinel errors — ErrUntrained,
// ErrDimensionMismatch, ErrBadConfig — so callers branch with errors.Is
// rather than string matching.
//
// See the runnable programs under examples/, the experiment CLI at
// cmd/capbench, and the serving daemon at cmd/capserved.
package hpcap

import (
	"hpcap/internal/baseline"
	"hpcap/internal/core"
	"hpcap/internal/cpu"
	"hpcap/internal/drift"
	"hpcap/internal/experiment"
	"hpcap/internal/fuse"
	"hpcap/internal/metrics"
	"hpcap/internal/ml"
	"hpcap/internal/ml/bayes"
	"hpcap/internal/ml/linreg"
	"hpcap/internal/ml/svm"
	"hpcap/internal/osstat"
	"hpcap/internal/pi"
	"hpcap/internal/predictor"
	"hpcap/internal/registry"
	"hpcap/internal/serve"
	"hpcap/internal/server"
	"hpcap/internal/tpcw"
	"hpcap/internal/wal"
	"hpcap/internal/wire"
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
	// Interaction is one of the 14 TPC-W web interactions.
	Interaction = tpcw.Interaction
	// Phase is one segment of a load schedule.
	Phase = tpcw.Phase
	// Schedule is a piecewise load program for the emulated browsers.
	Schedule = tpcw.Schedule
)

// The TPC-W traffic mixes and workload constructors.
var (
	Browsing     = tpcw.Browsing
	Shopping     = tpcw.Shopping
	Ordering     = tpcw.Ordering
	UnknownMix   = tpcw.Unknown
	FlashVariant = tpcw.FlashVariant
	NewMix       = tpcw.NewMix
	Steady       = tpcw.Steady
	Ramp         = tpcw.Ramp
	Spike        = tpcw.Spike
	Interleaved  = tpcw.Interleaved
	Concat       = tpcw.Concat
)

// Deterministic traffic shapes and the traffic-program grammar: compose
// diurnal cycles, flash crowds, and slow leaks directly, or script them
// as text ("steady mix=browsing base=400 for=300; flash base=400
// peak=2000000 for=120 hold=30 decay=30") and expand with
// TrafficProgram.Schedule. ParseTraffic never panics on garbage (the
// traffic fuzz test pins this) and round-trips TrafficProgram.String.
type (
	// TrafficProgram is a scripted load program of consecutive shapes.
	TrafficProgram = tpcw.Traffic
	// TrafficShape is one clause of a traffic program.
	TrafficShape = tpcw.Shape
	// TrafficShapeKind names a clause type (steady, ramp, diurnal,
	// flash, leak).
	TrafficShapeKind = tpcw.ShapeKind
)

// Traffic-shape constructors and the program parser.
var (
	Diurnal      = tpcw.Diurnal
	FlashCrowd   = tpcw.FlashCrowd
	SlowLeak     = tpcw.SlowLeak
	ParseTraffic = tpcw.ParseTraffic
	MixByName    = tpcw.MixByName
)

// Testbed simulation.
type (
	// ServerConfig configures the simulated two-tier site.
	ServerConfig = server.Config
	// TierConfig configures one tier.
	TierConfig = server.TierConfig
	// Testbed is the simulated two-tier website under TPC-W load: the
	// two-slot (app, db) view of a DAGTestbed over TwoTierTopology.
	Testbed = server.Testbed
	// Snapshot is one interval of testbed telemetry.
	Snapshot = server.Snapshot
	// TierID names a tier (TierApp, TierDB).
	TierID = server.TierID
	// AdmissionState is what an admission controller observes.
	AdmissionState = server.AdmissionState
	// AdmissionFunc decides whether to admit a request.
	AdmissionFunc = server.AdmissionFunc
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

// Tier-DAG topologies: arbitrary pool graphs (load balancer → replicated
// app pool → caches → sharded stores) behind the same monitor and
// serving surface as the two-tier testbed, and simulated by the same
// engine — the two-tier site is the degenerate DAG. Each pool folds its
// replica-mean counters into one of the fixed monitor tier slots, so a
// monitor trained on the paper's testbed serves any DAG.
type (
	// TopologyConfig defines a tier DAG: named replica pools wired by
	// Downstream edges, requests entering at Entry.
	TopologyConfig = server.TopologyConfig
	// PoolConfig describes one replica pool (role, replicas and scaling
	// bounds, per-replica tier configuration, demand routing).
	PoolConfig = server.PoolConfig
	// PoolKind classifies a pool's role (front, cache, store).
	PoolKind = server.PoolKind
	// DAGTestbed is the simulated website over a TopologyConfig — the
	// one simulator behind every testbed.
	DAGTestbed = server.DAGTestbed
	// DAGSnapshot is one interval of per-pool testbed telemetry; Legacy
	// folds it to the two-slot Snapshot shape.
	DAGSnapshot = server.DAGSnapshot
	// PoolSnapshot is one pool's slice of a DAGSnapshot.
	PoolSnapshot = server.PoolSnapshot
	// PoolLoad is one pool's offered-demand-to-capacity reading, the
	// autoscaler's bottleneck signal.
	PoolLoad = server.PoolLoad
)

// The pool roles of a tier DAG.
const (
	PoolFront = server.PoolFront
	PoolCache = server.PoolCache
	PoolStore = server.PoolStore
)

// Topology constructors: TwoTierTopology expresses a ServerConfig as
// the degenerate DAG (what NewTestbed simulates); DefaultTopologyConfig
// is the calibrated four-pool reference DAG; BottleneckPool picks the
// highest-loaded pool from a PoolLoad slice.
var (
	NewDAGTestbed         = server.NewDAGTestbed
	TwoTierTopology       = server.TwoTierTopology
	DefaultTopologyConfig = server.DefaultTopologyConfig
	BottleneckPool        = server.BottleneckPool
)

// Metric levels.
type Level = metrics.Level

// The metric sources: the two levels the paper compares plus their
// combination (the paper's proposed future-work extension).
const (
	LevelOS       = metrics.LevelOS
	LevelHPC      = metrics.LevelHPC
	LevelCombined = metrics.LevelCombined
)

// Metric collection.
type (
	// HPCCollector synthesizes the hardware-performance-counter view of
	// a tier (the PerfCtr substitute).
	HPCCollector = cpu.Collector
	// OSCollector synthesizes the Sysstat view of a tier (64 metrics).
	OSCollector = osstat.Collector
	// MetricAggregator folds 1-second samples into analysis windows.
	MetricAggregator = metrics.Aggregator
	// MetricSample is one aggregated window of metrics plus the
	// application-level health observed over it.
	MetricSample = metrics.Sample
)

// Collector constructors and window aggregation.
var (
	NewHPCCollector = cpu.NewCollector
	NewOSCollector  = osstat.NewCollector
	NewAggregator   = metrics.NewAggregator
)

// Metric name tables and collection costs.
var (
	HPCMetricNames = cpu.MetricNames
	OSMetricNames  = osstat.MetricNames
)

// Per-sample collection costs (normalized CPU seconds), reproducing the
// paper's <0.5% (counters) vs ≈4% (Sysstat) overhead finding.
const (
	HPCSampleCost = metrics.HPCSampleCost
	OSSampleCost  = metrics.OSSampleCost
	// DefaultWindow is the paper's 30-second aggregation window.
	DefaultWindow = metrics.DefaultWindow
)

// Capacity monitor (the paper's contribution).
type (
	// Monitor is the trained two-level coordinated capacity measurement
	// system. A trained Monitor is safe for concurrent use: give each
	// concurrent prediction stream its own MonitorSession (NewSession).
	Monitor = core.Monitor
	// MonitorSession is one independent prediction stream over a shared
	// trained Monitor: it owns its temporal history while reading the
	// shared synopses and predictor tables.
	MonitorSession = core.Session
	// MonitorConfig tunes monitor training.
	MonitorConfig = core.Config
	// Observation is one window of per-tier metric vectors.
	Observation = core.Observation
	// LabeledWindow is a training window with ground truth.
	LabeledWindow = core.LabeledWindow
	// TrainingSet is one training workload's labeled trace.
	TrainingSet = core.TrainingSet
	// Prediction is the monitor's per-window output.
	Prediction = core.Prediction
	// CoordinatorConfig tunes the two-level predictor (h, δ, scheme).
	CoordinatorConfig = predictor.Config
	// Scheme is the tie-break inside the ±δ band.
	Scheme = predictor.Scheme
	// Labeler derives offline overload ground truth from
	// application-level health.
	Labeler = pi.Labeler
	// DecideBatch is caller-owned scratch for Monitor.DecideAll, the
	// batched whole-shard decision pass.
	DecideBatch = core.DecideBatch
)

// Tie-break schemes.
const (
	Optimistic  = predictor.Optimistic
	Pessimistic = predictor.Pessimistic
)

// TrainMonitor trains a capacity monitor; see core.Train.
var TrainMonitor = core.Train

// Online serving layer.
type (
	// ServingPipeline streams per-tier 1-second samples for any number of
	// sites through a shared trained Monitor, emitting per-window
	// Decisions. It degrades gracefully on late/missing/NaN samples and
	// exports per-site counters in Prometheus text format (WriteMetrics).
	ServingPipeline = serve.Pipeline
	// ServingConfig tunes a ServingPipeline (window, staleness budget,
	// decision callback).
	ServingConfig = serve.Config
	// StreamSample is one 1-second metric vector from one tier of a
	// monitored site.
	StreamSample = serve.Sample
	// Decision is the pipeline's output for one completed window.
	Decision = serve.Decision
	// SiteStats is a snapshot of one site's serving counters.
	SiteStats = serve.SiteStats
)

// NewServingPipeline builds the online serving pipeline over a trained
// monitor; see the serve package for streaming semantics.
var NewServingPipeline = serve.NewPipeline

// Bayesian counter fusion: an optional de-noising stage between the
// collectors and the window aggregator. A per-(site, tier) Fuser runs a
// small linear-Gaussian factor graph over physically coupled counters
// with Kalman-style per-counter filters: NaN and stuck readings are
// imputed from their coupled neighbors instead of dropping the sample,
// implausible jumps are gated, and every fused sample carries a
// confidence in [0,1]. Enable it on a pipeline with ServingConfig.Fuse;
// clean samples pass through bit-identical to a fusion-less pipeline.
type (
	// FuseConfig tunes the fusion stage (filter noise, gate width, stuck
	// run length, confidence floor).
	FuseConfig = fuse.Config
	// Fuser is the per-stream fusion state for one counter vector layout.
	Fuser = fuse.Fuser
	// FuseResult is one fused sample: values, confidence, and the imputed
	// and gated counts.
	FuseResult = fuse.Result
)

// Fusion constructors: DefaultFuseConfig is the tuned default stage;
// NewFuser builds a standalone fuser for one stream (the pipeline builds
// its own per site and tier when ServingConfig.Fuse is set).
var (
	DefaultFuseConfig = fuse.DefaultConfig
	NewFuser          = fuse.New
)

// Sharded fleet-scale ingest: the same serving semantics partitioned
// across single-writer shards with batched queues, for 100k-site fleets
// on one daemon. Decision streams are byte-identical to the unsharded
// pipeline's.
type (
	// ShardedPipeline is the fleet-scale serving pipeline: sites hashed
	// to shards, per-shard ingest goroutines, counters merged only at
	// snapshot time.
	ShardedPipeline = serve.ShardedPipeline
	// ShardConfig sets shard count, batch size, and queue capacity.
	ShardConfig = serve.ShardConfig
	// SiteRef is a pre-resolved site handle for the allocation-free
	// ingest fast path (Register once, IngestRef per sample).
	SiteRef = serve.SiteRef
	// ShardStats is one shard's queue and rejection counters.
	ShardStats = serve.ShardStats
	// Batcher is a single-producer ingest buffer: Add per sample or
	// AddSite per fused site scrape, Flush before Sync.
	Batcher = serve.Batcher
)

// NewShardedPipeline builds the sharded fleet-scale pipeline;
// DefaultShardConfig is the tuned default geometry, and SiteShard is the
// exported routing hash (pure FNV-1a of the site name).
var (
	NewShardedPipeline = serve.NewShardedPipeline
	DefaultShardConfig = serve.DefaultShardConfig
	SiteShard          = serve.SiteShard
)

// Distributed collection: capagent edge senders batch fused per-site
// scrapes into sequenced wire frames and ship them to capserved over
// TCP; the server appends every accepted frame to a write-ahead sample
// log strictly before ingest, so a crashed daemon replays the log back
// to the exact pre-crash decision state. See cmd/capagent and DESIGN.md
// §12 for the protocol and recovery procedure.
type (
	// WireFrame is one site's batch of fused scrapes plus its per-site
	// sequence number.
	WireFrame = wire.Frame
	// WireSample is one fused scrape inside a frame: every tier's
	// 1-second vector under one timestamp.
	WireSample = wire.Sample
	// AgentConfig tunes a FrameSender (batch size, queue depth, retry
	// budget, backoff).
	AgentConfig = wire.AgentConfig
	// FrameSender is the edge agent's transmit side: Send encodes a
	// frame the caller has built and sequenced into a bounded queue, and
	// one goroutine writes every queued frame as a single batch — one
	// write, one deadline, one unit of retry with backoff. A batch
	// re-sent after a torn write can deliver its first frames twice; the
	// server counts and drops those as duplicates. A full queue sheds
	// oldest-first and a batch out of retries is dropped, so loss
	// surfaces as sequence gaps at the server rather than a wedged agent.
	FrameSender = wire.Sender
	// SenderStats counts a FrameSender's deliveries, retries, and drops.
	SenderStats = wire.SenderStats
	// FrameIngest turns decoded frames into pipeline ingest with
	// per-site sequence accounting (gaps, duplicates, reorders).
	FrameIngest = serve.Ingest
	// SiteTransport is the frame-level view of one site's feed,
	// distinct from its sample-level serving staleness.
	SiteTransport = serve.SiteTransport
	// FrameServer accepts agent connections and pumps frames through
	// the WAL hook into a shared FrameIngest.
	FrameServer = serve.FrameServer
	// ListenConfig shapes a FrameServer (address, frame size bound,
	// read timeout).
	ListenConfig = serve.ListenConfig
	// FrameServerStats counts a FrameServer's connection and frame
	// traffic.
	FrameServerStats = serve.ServerStats
	// SampleLog is the write-ahead sample log: frame payloads appended
	// before ingest, checksummed, torn-tail tolerant, replayable.
	SampleLog = wal.Log
	// SampleLogConfig tunes a SampleLog (sync cadence, record bound).
	SampleLogConfig = wal.Config
)

// Wire protocol errors and codec entry points. ErrFrame marks a
// malformed frame payload; ErrLogCorrupt marks a WAL whose body (not
// tail) fails its checksum.
var (
	ErrFrame      = wire.ErrFrame
	ErrLogCorrupt = wal.ErrCorrupt

	// EncodeFrame appends a frame's canonical payload encoding;
	// DecodeFrame parses one back (never panics, preserves Seq
	// bit-exactly).
	EncodeFrame = wire.AppendFrame
	DecodeFrame = wire.DecodeFrame
)

// Distributed-collection constructors.
var (
	NewFrameSender     = wire.NewSender
	DefaultAgentConfig = wire.DefaultAgentConfig

	NewFrameIngest      = serve.NewIngest
	NewFrameServer      = serve.NewFrameServer
	DefaultListenConfig = serve.DefaultListenConfig

	// OpenSampleLog opens (creating or recovering) a write-ahead sample
	// log and reports how many intact records survived; ReplaySampleLog
	// streams a log's records read-only, e.g. back through a
	// FrameIngest after a crash.
	OpenSampleLog          = wal.Open
	ReplaySampleLog        = wal.Replay
	DefaultSampleLogConfig = wal.DefaultConfig
)

// Adaptive model lifecycle: drift detection over the labeled decision
// stream, versioned model storage, and retrain-shadow-swap management.
type (
	// SwapEvent announces a model hot-swap on one pipeline site.
	SwapEvent = serve.SwapEvent
	// DriftConfig tunes the per-site drift detectors (accuracy decay,
	// PI-correlation rank loss, request-mix shift).
	DriftConfig = drift.Config
	// DriftDetector watches one site's labeled decision stream.
	DriftDetector = drift.Detector
	// DriftObservation is one decided window paired with its delayed
	// ground truth.
	DriftObservation = drift.Observation
	// DriftSignal is one fired drift test.
	DriftSignal = drift.Signal
	// ModelStore is the per-site versioned history of trained monitors.
	ModelStore = registry.Store
	// ModelVersion is one entry in a site's model history.
	ModelVersion = registry.Version
	// LifecycleManager pairs decisions with ground truth, detects drift,
	// retrains candidates, and hot-swaps winners into the pipeline.
	LifecycleManager = registry.Manager
	// LifecycleConfig tunes a LifecycleManager.
	LifecycleConfig = registry.Config
	// LifecycleEvent is one drift or retrain occurrence.
	LifecycleEvent = registry.Event
	// GroundTruth is the delayed application-level label for one window.
	GroundTruth = registry.Truth
)

// Lifecycle constructors.
var (
	NewDriftDetector    = drift.New
	NewModelStore       = registry.NewStore
	NewLifecycleManager = registry.NewManager
)

// Closed-loop autoscaling: the registry's second actuator besides the
// admission valve. An Autoscaler consumes the pipeline's overload
// verdicts together with live per-pool loads, arms on a streak of
// confirming windows, and grows or shrinks the bottleneck pool through
// the Scaler the caller provides (a DAGTestbed in the simulated fleet, a
// cluster API in a real one), with a cooldown between actions. See
// DESIGN.md §15 for the scaler-versus-valve arbitration.
type (
	// Autoscaler turns overload verdicts plus pool loads into replica
	// actions.
	Autoscaler = registry.Autoscaler
	// AutoscalerConfig tunes the streak, ratio, and cooldown gates.
	AutoscalerConfig = registry.AutoscalerConfig
	// Scaler is the actuator surface an Autoscaler drives.
	Scaler = registry.Scaler
	// ScaleEvent announces one applied replica action.
	ScaleEvent = registry.ScaleEvent
)

// Autoscaler constructors.
var (
	NewAutoscaler           = registry.NewAutoscaler
	DefaultAutoscalerConfig = registry.DefaultAutoscalerConfig
)

// Learners.
type Learner = ml.Learner

// The four synopsis builders of the paper.
var (
	LinearRegression = linreg.Learner
	NaiveBayes       = bayes.NaiveLearner
	TAN              = bayes.TANLearner
	SVM              = svm.Learner
)

// Experiments (the paper's evaluation).
type (
	// Lab caches workloads and traces shared by the experiments.
	Lab = experiment.Lab
	// Scale sizes the generated traces.
	Scale = experiment.Scale
	// Workload is a mix with its measured saturation knees.
	Workload = experiment.Workload
	// TestKind names one of the four test workloads.
	TestKind = experiment.TestKind
	// Trace is a generated labeled run of the testbed.
	Trace = experiment.Trace
	// Table1Result is the synopsis accuracy grid (Table I).
	Table1Result = experiment.Table1Result
	// Fig3Result is the PI-vs-throughput series (Figure 3).
	Fig3Result = experiment.Fig3Result
	// Fig4Result is the coordinated accuracy grid (Figure 4).
	Fig4Result = experiment.Fig4Result
	// TimingResult is the learner cost table (§V.B).
	TimingResult = experiment.TimingResult
	// OverheadResult is the collection overhead table (§V.D).
	OverheadResult = experiment.OverheadResult
	// AblationResult is the history/scheme sensitivity grid (§V.C).
	AblationResult = experiment.AblationResult
	// BaselineResult compares conventional detectors with the monitor.
	BaselineResult = experiment.BaselineResult
	// LevelResult compares OS, HPC and combined monitors.
	LevelResult = experiment.LevelResult
	// DriftReplay is the end-to-end adaptive-lifecycle replay result
	// (Lab.RunDriftReplay).
	DriftReplay = experiment.DriftReplay
	// FusionReplay is the counter-fusion storm replay result
	// (Lab.RunFusionReplay): the same stream served clean, corrupted raw,
	// and corrupted fused, with windowed error and drift fires per run.
	FusionReplay = experiment.FusionReplay
	// AutoscaleReplay is the closed-loop capacity experiment result
	// (Lab.RunAutoscaleReplay): the same flash crowd served under
	// admission-only shedding and under autoscaling, with the scaling arm
	// serving strictly more.
	AutoscaleReplay = experiment.AutoscaleReplay
)

// Conventional overload detectors (the comparators of §I/§II.A).
type (
	// PIThreshold is the calibrated single-PI rule.
	PIThreshold = baseline.PIThreshold
	// RTDetector is the response-time trigger with its dead-time delay.
	RTDetector = baseline.RTDetector
	// UtilDetector is the CPU-utilization trigger.
	UtilDetector = baseline.UtilDetector
)

// CalibratePIThreshold fits the single-PI rule on a labeled PI series.
var CalibratePIThreshold = baseline.CalibratePIThreshold

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
	FullScale  = experiment.FullScale
	FindKnee   = experiment.FindKnee
)
