// Package serve is the online serving layer: the path from a live stream
// of per-tier 1-second metric samples to a realtime overload/bottleneck
// decision, for any number of monitored sites at once.
//
// A Pipeline wraps one trained core.Monitor. Each monitored site gets an
// independent prediction stream (a core.Session) plus per-tier window sums
// that fold the raw 1-second vectors into the paper's 30-second analysis
// windows, by the same arithmetic as the batch metrics.Aggregator. When a
// site's window completes across all tiers, the pipeline predicts and
// publishes a Decision through Config.OnDecision; an AdmissionValve
// adapter turns the latest decision into a server.AdmissionFunc, closing
// the control loop against the simulated testbed.
//
// That per-site state machine is implemented once, in the engine. A
// Pipeline applies samples to one engine in place, synchronously on the
// caller's goroutine; a ShardedPipeline hashes sites across N engines,
// each behind a batch queue and its own goroutine, for fleets fed by many
// producers. Everything else the two offer is the same code.
//
// Deployed counter streams are noisy and lossy (samples arrive late, go
// missing, or carry NaN after a counter wraps), so the pipeline degrades
// rather than crashes: malformed samples are skipped and counted, windows
// missing no more than stalenessBudget (5) samples per tier are still
// decided from the partial mean (flagged Degraded), and windows missing
// more are dropped with the site's temporal history reset, as the paper
// prescribes after long gaps. On a clean stream the pipeline's decisions
// are bit-identical to replaying the same windows through a batch session
// of core — the serving layer adds resilience, not drift.
//
// Every site is instrumented: counters for samples ingested/skipped,
// windows decided/degraded/dropped, overloads, GPV disagreement, and
// prediction latency, exported in Prometheus text format by
// WriteMetrics (cmd/capserved serves them over HTTP).
package serve

import (
	"fmt"
	"time"

	"hpcap/internal/core"
	"hpcap/internal/fuse"
	"hpcap/internal/metrics"
	"hpcap/internal/server"
)

// Config tunes a Pipeline.
type Config struct {
	// Window is the aggregation window in seconds; zero selects
	// metrics.DefaultWindow (the paper's 30).
	Window int
	// OnDecision, when set, is invoked synchronously for every decision;
	// it is the pipeline's one publication path. It runs outside the
	// pipeline's locks, so it may call back into the pipeline (a
	// ShardedPipeline callback must not call the methods that wait on its
	// own shard goroutine; see that type).
	OnDecision func(Decision)
	// OnSwap, when set, is invoked synchronously after every model
	// hot-swap (SwapMonitor). Like OnDecision it runs outside the
	// pipeline's locks.
	OnSwap func(SwapEvent)
	// OnHealth, when set, is invoked synchronously for every
	// degradation-state transition, after the decision (if any) that
	// caused it. Like OnDecision it runs outside the pipeline's locks.
	OnHealth func(HealthEvent)
	// Fuse, when non-nil, inserts a per-site, per-tier counter-fusion
	// stage (internal/fuse) between ingest and window aggregation: each
	// 1-second vector is de-noised through the counter factor graph
	// before it reaches the aggregator, NaN/Inf and gated readings are
	// imputed from coupled counters instead of dropping the sample, and
	// every decision carries the window's mean per-counter confidence.
	// Windows whose confidence falls below the fuse config's
	// ConfidenceFloor are flagged LowConfidence and walk the degradation
	// ladder like partial windows. Nil (the default) disables fusion;
	// the nil path is bit-identical to a pipeline built before fusion
	// existed. The zero fuse.Config selects fuse.DefaultConfig.
	Fuse *fuse.Config
	// PoolLabels names the replica pool occupying each tier slot, for the
	// autoscaling Prometheus families (capserved_pool_replicas and
	// capserved_autoscale_total). An empty entry falls back to the slot's
	// TierID name ("app", "db"), so a legacy two-tier deployment needs no
	// configuration. Purely cosmetic: the labels never affect decisions.
	PoolLabels [server.NumTiers]string
}

// Health is a site's position on the degradation ladder. The serving
// pipeline walks it from window outcomes alone: a partial (degraded)
// window moves the site to HealthDegraded, a dropped window or stream gap
// to HealthStale, and recoverWindows consecutive clean decisions
// from either state back to HealthHealthy. Every transition increments a
// per-edge counter (SiteStats.HealthTransitions, exported as the
// capserved_health_transitions_total Prometheus family) and fires
// Config.OnHealth.
type Health int32

// The degradation ladder, in order of decreasing trust.
const (
	// HealthHealthy: the latest decisions came from complete windows.
	HealthHealthy Health = iota
	// HealthDegraded: deciding, but from partial windows (samples lost
	// within the staleness budget).
	HealthDegraded
	// HealthStale: the stream went bad enough to drop a window and reset
	// the temporal history; there is no trustworthy recent decision, so
	// the admission valve fails open.
	HealthStale
	// NumHealthStates sizes per-state arrays.
	NumHealthStates = 3
)

// String names the state as exported in metrics and transcripts.
func (h Health) String() string {
	switch h {
	case HealthHealthy:
		return "healthy"
	case HealthDegraded:
		return "degraded"
	case HealthStale:
		return "stale"
	default:
		return fmt.Sprintf("Health(%d)", int32(h))
	}
}

// HealthEvent announces one degradation-state transition on a site.
type HealthEvent struct {
	Site     string
	From, To Health
	// Seq is the window whose outcome caused the transition.
	Seq int64
}

// Sample is one 1-second metric vector from one tier of a monitored site,
// in the full collector layout the monitor was trained on.
type Sample struct {
	// Site names the monitored site; sites are created on first sample.
	Site string
	Tier server.TierID
	// Time is the sample timestamp in seconds. Samples must be
	// per-tier monotonic; a repeated or rewound timestamp is late.
	Time   float64
	Values []float64
}

// Decision is the pipeline's output for one completed window of one site.
type Decision struct {
	Site string
	// Seq is the absolute window index (Time ∈ (Seq·W, (Seq+1)·W]);
	// gaps in Seq mark dropped windows.
	Seq int64
	// Time is the timestamp of the last sample folded into the window.
	Time       float64
	Prediction core.Prediction
	// Degraded marks a window decided from a partial mean.
	Degraded bool
	// Missing is how many expected samples the window lacked, summed
	// over tiers (0 unless Degraded).
	Missing int
	// Vectors holds the per-tier window-mean metric vectors the decision
	// was predicted from. The slices, like Prediction.GPV, are owned by
	// the decision and may be retained: the engine carves them from
	// chunks it shares across windows but never rewrites, replacing a
	// spent chunk rather than reusing it, so a retained decision keeps at
	// most one chunk of each kind alive. Treat them as read-only.
	Vectors [server.NumTiers][]float64
	// ModelVersion is the site's active model version at decision time
	// (0 until the first hot-swap).
	ModelVersion int64
	// Confidence is the window's mean per-counter fusion confidence in
	// [0, 1]: 1 when every reading was accepted raw, lower as readings
	// were imputed from coupled counters or filter priors. Always 1 when
	// fusion is disabled.
	Confidence float64
	// LowConfidence marks a window whose Confidence fell below the fuse
	// config's ConfidenceFloor: the decision stands but came mostly from
	// imputed readings, so downstream consumers (the registry's retrain
	// guard, the degradation ladder) treat it like a degraded window.
	// Always false when fusion is disabled.
	LowConfidence bool
}

// SwapEvent announces a model hot-swap on one site.
type SwapEvent struct {
	Site string
	// Version is the newly active model version, PrevVersion the one it
	// replaced (0 is the initial model the pipeline was built with).
	Version, PrevVersion int64
	// Seq is the first window index the new model will decide: every
	// decision with Seq below this came from the previous model.
	Seq int64
}

// SiteStats is a snapshot of one site's serving counters.
type SiteStats struct {
	Site string

	// Ingestion. The four skip counters surface as one Prometheus family,
	// capserved_samples_skipped_total, with a reason label.
	SamplesIngested uint64 // samples offered, good or bad
	SamplesLate     uint64 // non-monotonic, duplicate, or closed-window
	SamplesBadValue uint64 // NaN or Inf component
	SamplesBadShape uint64 // wrong vector length or tier out of range
	SamplesGapReset uint64 // accepted but discarded when their window was dropped

	// Windowing and prediction.
	WindowsDecided   uint64 // decisions emitted (clean + degraded)
	WindowsDegraded  uint64 // decided from a partial window
	WindowsDropped   uint64 // skipped: over staleness budget or empty gap
	Overloads        uint64 // decisions that predicted overload
	GPVDisagreements uint64 // decided windows whose synopses disagreed
	PredictErrors    uint64 // monitor rejections (should stay 0)

	// Prediction latency.
	PredictNanos    uint64 // cumulative
	PredictMaxNanos uint64

	// Model lifecycle.
	SessionResets uint64 // temporal-history resets after stream gaps
	ModelSwaps    uint64 // hot-swaps applied (SwapMonitor)
	DriftSignals  uint64 // drift detections reported via NoteDrift
	ModelVersion  int64  // active model version (0 = initial)
	LastSwapSeq   int64  // first window decided by the active model; -1 before any swap

	// Autoscaling (all zero until a NoteScale call; the pool families are
	// rendered only when some site has a nonzero PoolReplicas entry).
	ScaleUps     uint64               // replica additions reported via NoteScale
	ScaleDowns   uint64               // replica removals reported via NoteScale
	PoolReplicas [server.NumTiers]int // active replicas per tier slot (0 = unreported)

	// Freshness (for readiness probes).
	LastDecisionSeq  int64   // most recent decided window; -1 before the first
	LastDecisionTime float64 // its stream timestamp in seconds

	// Counter fusion (all zero unless Config.Fuse is set).
	SamplesFused         uint64  // samples run through the fusion stage
	FuseImputed          uint64  // counter readings replaced by the factor graph or filter prior
	FuseGated            uint64  // readings rejected by the innovation gate (subset of FuseImputed)
	WindowsLowConfidence uint64  // decided windows flagged LowConfidence
	FuseConfidence       float64 // mean confidence of the most recent decided window

	// Degradation ladder.
	Health Health // current state (healthy until a fault says otherwise)
	// HealthTransitions counts state changes by edge, [from][to]; the
	// diagonal stays zero. Exported as capserved_health_transitions_total.
	HealthTransitions [NumHealthStates][NumHealthStates]uint64
}

// HealthChanges sums every degradation-state transition the site has made.
func (s SiteStats) HealthChanges() uint64 {
	var n uint64
	for _, row := range s.HealthTransitions {
		for _, v := range row {
			n += v
		}
	}
	return n
}

// DisagreementRate is the fraction of decided windows whose Global
// Pattern Vector was not unanimous — the serving-time analogue of the
// paper's observation that individual synopses err independently.
func (s SiteStats) DisagreementRate() float64 {
	if s.WindowsDecided == 0 {
		return 0
	}
	return float64(s.GPVDisagreements) / float64(s.WindowsDecided)
}

// MeanPredictLatency is the average per-window prediction cost.
func (s SiteStats) MeanPredictLatency() time.Duration {
	if s.WindowsDecided == 0 {
		return 0
	}
	return time.Duration(s.PredictNanos / s.WindowsDecided)
}

// The degradation ladder's two constants, the values every deployment
// runs on.
const (
	// stalenessBudget is the most samples a window may be missing per
	// tier and still be decided (flagged Degraded) from the partial
	// mean; a window missing more in any tier is dropped undecided and
	// the site's temporal history is reset. A window of five seconds or
	// fewer takes Window-1.
	stalenessBudget = 5
	// recoverWindows is how many consecutive clean (non-degraded)
	// decided windows move a degraded or stale site back to healthy.
	recoverWindows = 3
)

// DefaultConfig returns the canonical serving settings: the paper's
// window. Callbacks default to nil.
func DefaultConfig() Config {
	return Config{Window: metrics.DefaultWindow}
}

// withDefaults fills a zero Window from DefaultConfig.
func (c Config) withDefaults() Config {
	if c.Window == 0 {
		c.Window = DefaultConfig().Window
	}
	return c
}

// Validate applies defaults first, then returns one error per remaining
// violation, each wrapping core.ErrBadConfig. A nil (or empty) result
// means the configuration is servable as resolved.
func (c Config) Validate() []error {
	c = c.withDefaults()
	var errs []error
	if c.Window < 0 {
		errs = append(errs, fmt.Errorf("serve: %w: window %d must be positive", core.ErrBadConfig, c.Window))
	}
	if c.Fuse != nil {
		errs = append(errs, c.Fuse.Validate()...)
	}
	return errs
}

// PoolLabel resolves the label for a tier slot's replica pool, falling
// back to the slot's TierID name when PoolLabels leaves it empty.
func (c Config) PoolLabel(slot server.TierID) string {
	if slot >= 0 && slot < server.NumTiers && c.PoolLabels[slot] != "" {
		return c.PoolLabels[slot]
	}
	return slot.String()
}
