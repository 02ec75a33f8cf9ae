package serve

import (
	"fmt"
	"io"

	"hpcap/internal/server"
)

// promMetric describes one exported counter/gauge over all sites.
type promMetric struct {
	name  string
	kind  string // "counter" or "gauge"
	help  string
	value func(SiteStats) float64
}

var promMetrics = []promMetric{
	{"capserved_samples_ingested_total", "counter", "Samples offered to the pipeline, good or bad.",
		func(s SiteStats) float64 { return float64(s.SamplesIngested) }},
	{"capserved_windows_decided_total", "counter", "Windows that produced a decision.",
		func(s SiteStats) float64 { return float64(s.WindowsDecided) }},
	{"capserved_windows_degraded_total", "counter", "Windows decided from a partial mean.",
		func(s SiteStats) float64 { return float64(s.WindowsDegraded) }},
	{"capserved_windows_dropped_total", "counter", "Windows dropped over the staleness budget.",
		func(s SiteStats) float64 { return float64(s.WindowsDropped) }},
	{"capserved_overloads_total", "counter", "Decisions that predicted overload.",
		func(s SiteStats) float64 { return float64(s.Overloads) }},
	{"capserved_gpv_disagreements_total", "counter", "Decided windows whose synopses disagreed.",
		func(s SiteStats) float64 { return float64(s.GPVDisagreements) }},
	{"capserved_predict_errors_total", "counter", "Monitor rejections of an assembled window.",
		func(s SiteStats) float64 { return float64(s.PredictErrors) }},
	{"capserved_prediction_seconds_total", "counter", "Cumulative prediction latency.",
		func(s SiteStats) float64 { return float64(s.PredictNanos) / 1e9 }},
	{"capserved_prediction_max_seconds", "gauge", "Largest single prediction latency.",
		func(s SiteStats) float64 { return float64(s.PredictMaxNanos) / 1e9 }},
	{"capserved_gpv_disagreement_rate", "gauge", "Fraction of decided windows with a split synopsis vote.",
		func(s SiteStats) float64 { return s.DisagreementRate() }},
	{"capserved_session_resets_total", "counter", "Temporal-history resets after stream gaps.",
		func(s SiteStats) float64 { return float64(s.SessionResets) }},
	{"capserved_model_swaps_total", "counter", "Model hot-swaps applied.",
		func(s SiteStats) float64 { return float64(s.ModelSwaps) }},
	{"capserved_drift_signals_total", "counter", "Drift detections reported against the site.",
		func(s SiteStats) float64 { return float64(s.DriftSignals) }},
	{"capserved_model_version", "gauge", "Active model version (0 = initial).",
		func(s SiteStats) float64 { return float64(s.ModelVersion) }},
	{"capserved_last_swap_window", "gauge", "First window decided by the active model (-1 before any swap).",
		func(s SiteStats) float64 { return float64(s.LastSwapSeq) }},
	{"capserved_health_state", "gauge", "Degradation-ladder position: 0 healthy, 1 degraded, 2 stale.",
		func(s SiteStats) float64 { return float64(s.Health) }},
}

// fuseMetrics are the counter-fusion families, rendered only when the
// pipeline was built with Config.Fuse (their values are structurally
// zero otherwise, and a scrape should not suggest a fusion stage that
// is not there).
var fuseMetrics = []promMetric{
	{"capserved_fuse_samples_total", "counter", "Samples run through the counter-fusion stage.",
		func(s SiteStats) float64 { return float64(s.SamplesFused) }},
	{"capserved_fuse_imputed_total", "counter", "Counter readings replaced by the factor graph or filter prior.",
		func(s SiteStats) float64 { return float64(s.FuseImputed) }},
	{"capserved_fuse_gated_total", "counter", "Readings rejected by the innovation gate.",
		func(s SiteStats) float64 { return float64(s.FuseGated) }},
	{"capserved_fuse_low_confidence_windows_total", "counter", "Decided windows flagged low-confidence.",
		func(s SiteStats) float64 { return float64(s.WindowsLowConfidence) }},
	{"capserved_fuse_confidence", "gauge", "Mean fusion confidence of the most recent decided window.",
		func(s SiteStats) float64 { return s.FuseConfidence }},
}

// skipReasons breaks the skipped-sample count out by cause under one
// metric family with a reason label.
var skipReasons = []struct {
	reason string
	value  func(SiteStats) uint64
}{
	{"nan", func(s SiteStats) uint64 { return s.SamplesBadValue }},
	{"late", func(s SiteStats) uint64 { return s.SamplesLate }},
	{"misshapen", func(s SiteStats) uint64 { return s.SamplesBadShape }},
	{"gap-reset", func(s SiteStats) uint64 { return s.SamplesGapReset }},
}

// writeSiteMetrics renders a per-site stats snapshot. fusing adds the
// counter-fusion families; cfg resolves the pool labels for the
// autoscaling families, which render only when some site has reported a
// replica count via NoteScale (a scrape should not suggest an autoscaler
// that is not there).
func writeSiteMetrics(w io.Writer, stats []SiteStats, fusing bool, cfg Config) error {
	families := promMetrics
	if fusing {
		families = append(append([]promMetric(nil), promMetrics...), fuseMetrics...)
	}
	for _, m := range families {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.kind); err != nil {
			return err
		}
		for _, s := range stats {
			// %q escapes exactly what the exposition format requires
			// of a label value (backslash, quote, newline).
			if _, err := fmt.Fprintf(w, "%s{site=%q} %g\n", m.name, s.Site, m.value(s)); err != nil {
				return err
			}
		}
	}
	const skipped = "capserved_samples_skipped_total"
	if _, err := fmt.Fprintf(w, "# HELP %s Samples that never reached a decision, by reason.\n# TYPE %s counter\n",
		skipped, skipped); err != nil {
		return err
	}
	for _, s := range stats {
		for _, r := range skipReasons {
			if _, err := fmt.Fprintf(w, "%s{site=%q,reason=%q} %g\n",
				skipped, s.Site, r.reason, float64(r.value(s))); err != nil {
				return err
			}
		}
	}
	scaling := false
	for _, s := range stats {
		for _, n := range s.PoolReplicas {
			if n != 0 {
				scaling = true
			}
		}
	}
	if scaling {
		const replicas = "capserved_pool_replicas"
		if _, err := fmt.Fprintf(w, "# HELP %s Active replicas per pool, as last reported by NoteScale.\n# TYPE %s gauge\n",
			replicas, replicas); err != nil {
			return err
		}
		for _, s := range stats {
			for slot := server.TierID(0); slot < server.NumTiers; slot++ {
				if s.PoolReplicas[slot] == 0 {
					continue
				}
				if _, err := fmt.Fprintf(w, "%s{site=%q,pool=%q} %g\n",
					replicas, s.Site, cfg.PoolLabel(slot), float64(s.PoolReplicas[slot])); err != nil {
					return err
				}
			}
		}
		const autoscale = "capserved_autoscale_total"
		if _, err := fmt.Fprintf(w, "# HELP %s Autoscaling actions applied, by direction.\n# TYPE %s counter\n",
			autoscale, autoscale); err != nil {
			return err
		}
		for _, s := range stats {
			if _, err := fmt.Fprintf(w, "%s{site=%q,direction=\"up\"} %g\n%s{site=%q,direction=\"down\"} %g\n",
				autoscale, s.Site, float64(s.ScaleUps),
				autoscale, s.Site, float64(s.ScaleDowns)); err != nil {
				return err
			}
		}
	}
	const transitions = "capserved_health_transitions_total"
	if _, err := fmt.Fprintf(w, "# HELP %s Degradation-state transitions, by edge.\n# TYPE %s counter\n",
		transitions, transitions); err != nil {
		return err
	}
	for _, s := range stats {
		for from := Health(0); from < NumHealthStates; from++ {
			for to := Health(0); to < NumHealthStates; to++ {
				if from == to {
					continue
				}
				if _, err := fmt.Fprintf(w, "%s{site=%q,from=%q,to=%q} %g\n",
					transitions, s.Site, from.String(), to.String(),
					float64(s.HealthTransitions[from][to])); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// shardMetric describes one exported counter/gauge over all shards.
type shardMetric struct {
	name  string
	kind  string
	help  string
	value func(ShardStats) float64
}

var shardMetrics = []shardMetric{
	{"capserved_shard_sites", "gauge", "Sites resident on the shard.",
		func(s ShardStats) float64 { return float64(s.Sites) }},
	{"capserved_shard_samples_enqueued_total", "counter", "Samples accepted into the shard's batch queue.",
		func(s ShardStats) float64 { return float64(s.Enqueued) }},
	{"capserved_shard_samples_processed_total", "counter", "Samples applied by the shard goroutine.",
		func(s ShardStats) float64 { return float64(s.Processed) }},
	{"capserved_shard_batches_total", "counter", "Batches drained from the shard queue.",
		func(s ShardStats) float64 { return float64(s.Batches) }},
	{"capserved_shard_queue_stalls_total", "counter", "Full-queue waits producers blocked through.",
		func(s ShardStats) float64 { return float64(s.Stalls) }},
	{"capserved_shard_queue_depth", "gauge", "Samples accepted but not yet applied.",
		func(s ShardStats) float64 { return float64(s.QueueDepth) }},
}

// writeShardMetrics renders the sharded pipeline's queue counters, one
// series per shard.
func writeShardMetrics(w io.Writer, stats []ShardStats) error {
	for _, m := range shardMetrics {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.kind); err != nil {
			return err
		}
		for _, s := range stats {
			if _, err := fmt.Fprintf(w, "%s{shard=\"%d\"} %g\n", m.name, s.Shard, m.value(s)); err != nil {
				return err
			}
		}
	}
	const rejected = "capserved_shard_rejected_total"
	if _, err := fmt.Fprintf(w, "# HELP %s Samples rejected before reaching a shard engine, by reason.\n# TYPE %s counter\n",
		rejected, rejected); err != nil {
		return err
	}
	for _, s := range stats {
		if _, err := fmt.Fprintf(w, "%s{shard=\"%d\",reason=\"closed\"} %g\n%s{shard=\"%d\",reason=\"bad-ref\"} %g\n",
			rejected, s.Shard, float64(s.RejectedClosed),
			rejected, s.Shard, float64(s.RejectedRef)); err != nil {
			return err
		}
	}
	return nil
}
