package experiment

import (
	"fmt"
	"io"

	"hpcap/internal/chaos"
	"hpcap/internal/core"
	"hpcap/internal/drift"
	"hpcap/internal/metrics"
	"hpcap/internal/ml/bayes"
	"hpcap/internal/registry"
	"hpcap/internal/serve"
	"hpcap/internal/server"
	"hpcap/internal/tpcw"
	"hpcap/internal/wire"
)

// Trace seed offsets of the replays, one per scenario, clear of every seed
// the lab derives for its training, test, interleaved and Fig. 3 traces
// (TestReplaySeeds holds them apart).
const (
	driftReplaySeed     = 300
	chaosReplaySeed     = 400
	fusionReplaySeed    = 500
	autoscaleReplaySeed = 600
)

const (
	// replayLevel is the metric level every replay serves at.
	replayLevel = metrics.LevelHPC
	// replaySite is the one monitored site every replay serves.
	replaySite = "site"
	// loopbackFrameSamples is how many scrapes one loopback frame carries.
	loopbackFrameSamples = 5
)

// replayDrift is the replay-tight detector tuning: a scripted shift is
// unambiguous, so the detectors may react far faster than the daemon
// defaults.
var replayDrift = drift.Config{
	PHDelta:       0.02,
	PHLambda:      4,
	MinWindows:    6,
	MixRefWindows: 6,
	MixWindow:     8,
	MixThreshold:  0.08,
	MixPatience:   3,
}

// replay is the scaffold the scripted replays (drift, chaos, fusion,
// autoscale) are declared over. It owns what they share: a monitor trained
// on the browsing mix alone, the recorded trace, the serving front, the
// per-second ingest loop, and the registry.Manager that receives every
// decision with its ground truth. A scenario declares only its traffic,
// its stream transform, its lifecycle overrides and its transcript.
type replay struct {
	*Lab
	workers int
	front   front
	wb      Workload
	mon     *core.Monitor
	names   []string
}

// newReplay trains the replay monitor on the browsing mix alone: the
// lab's shared monitors train on both mixes, which would leave a mix
// shift no accuracy to take away. workers bounds the synopsis-build
// fan-out of this training and of every retrain; transcripts are
// bit-identical for any value.
func (l *Lab) newReplay(workers int, f front) (*replay, error) {
	wb, err := l.Workload(tpcw.Browsing())
	if err != nil {
		return nil, err
	}
	btr, err := l.TrainingTrace(tpcw.Browsing())
	if err != nil {
		return nil, err
	}
	r := &replay{Lab: l, workers: workers, front: f, wb: wb, names: MetricNames(replayLevel)}
	set := core.TrainingSet{Workload: "browsing"}
	for _, w := range btr.Windows {
		set.Windows = append(set.Windows, core.LabeledWindow{
			Observation: core.Observation{Time: w.Time, Vectors: w.Vectors(replayLevel)},
			Overload:    w.Overload,
			Bottleneck:  w.Bottleneck,
		})
	}
	r.mon, err = core.Train(replayLevel, r.names, []core.TrainingSet{set}, r.trainConfig(0))
	if err != nil {
		return nil, fmt.Errorf("experiment: train replay monitor: %w", err)
	}
	return r, nil
}

// trainConfig is the TAN training of the initial monitor (seed offset 0)
// and of every retrain candidate (1).
func (r *replay) trainConfig(seed int64) core.Config {
	return core.Config{
		Learner: bayes.TANLearner(),
		Seed:    r.Seed + seed,
		Workers: r.workers,
	}
}

// stream is a replayable copy of a recorded trace: one scrape per second,
// every tier's 1-second vector under the scrape's time.
type stream []wire.Sample

// at returns second i of the stream.
func (s stream) at(i int) wire.Sample { return s[i] }

// record generates a scenario's traffic with per-second samples, seeded
// seed past the lab's seed, and returns the trace and its clean stream.
func (r *replay) record(sched tpcw.Schedule, seed int64) (*Trace, stream, error) {
	tr, err := Generate(TraceConfig{
		Server:        r.Server,
		Schedule:      sched,
		Window:        r.Scale.Window,
		Warmup:        r.Scale.WarmupWindows,
		Seed:          r.Seed + seed,
		RecordSeconds: true,
		Topology:      r.Topology,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("experiment: generate replay trace: %w", err)
	}
	st := make(stream, len(tr.SecTimes))
	for tier := server.TierID(0); tier < server.NumTiers; tier++ {
		for i, v := range tr.SecondVectors(replayLevel, tier) {
			st[i].Time = tr.SecTimes[i]
			st[i].Vecs[tier] = v
		}
	}
	return tr, st, nil
}

// front is the serving geometry a replay runs through: shards == 0 is the
// inline serve.Pipeline, otherwise a ShardedPipeline with that many
// shards; loopback additionally ships every scrape as capagent wire frames
// over a loopback TCP connection into it. A frame carries whole scrapes,
// so loopback serves per-scrape streams only, never a per-sample
// injector's output. Every front must yield the same transcript.
type front struct {
	shards   int
	loopback bool
}

// servingPipeline is the surface a replay drives, whatever the front.
type servingPipeline interface {
	registry.Pipeline
	Ingest(serve.Sample)
	Flush()
	SiteStats(string) (serve.SiteStats, bool)
	NoteScale(string, server.TierID, int, bool)
	AdmissionValve(string, int) server.AdmissionFunc
}

// pipe is one opened front and the decisions it has published.
type pipe struct {
	servingPipeline
	front
	sharded   *serve.ShardedPipeline // nil on the inline front
	decisions []serve.Decision
}

// open builds a fresh pipeline at the replay's front over the replay
// monitor. cfg carries the scenario's callbacks; the window and the
// decision record are the scaffold's. On a sharded front callbacks run on
// shard goroutines, ordered before the scaffold's next step by the
// per-second Sync (or, over loopback, by the final Flush).
func (r *replay) open(cfg serve.Config) (*pipe, error) {
	p := &pipe{front: r.front}
	cfg.Window = r.Scale.Window
	onDecision := cfg.OnDecision
	cfg.OnDecision = func(d serve.Decision) {
		p.decisions = append(p.decisions, d)
		if onDecision != nil {
			onDecision(d)
		}
	}
	var err error
	if r.front.shards == 0 {
		p.servingPipeline, err = serve.NewPipeline(r.mon, cfg)
	} else {
		p.sharded, err = serve.NewShardedPipeline(r.mon, cfg, serve.ShardConfig{Shards: r.front.shards})
		p.servingPipeline = p.sharded
	}
	return p, err
}

// close stops a sharded front's goroutines.
func (p *pipe) close() {
	if p.sharded != nil {
		p.sharded.Close()
	}
}

// feed drives the pipe through seconds scrapes, one second at a time,
// passing every tier's sample through inject when there is one. After
// each second the front settles (a sharded pipeline Syncs) and deliver
// sees, in publication order, every decision not yet delivered except the
// newest lag. Over loopback the scrapes are shipped only once the traffic
// is over, so there nothing is delivered before the end. At the end the
// injector's backlog drains, the front flushes, and deliver sees the rest
// with final set.
func (p *pipe) feed(seconds int, scrape func(i int) wire.Sample, inject *chaos.Injector,
	lag int, deliver func(d serve.Decision, final bool)) error {
	var shipped stream
	fed := 0
	for i := 0; i < seconds; i++ {
		s := scrape(i)
		if p.loopback {
			shipped = append(shipped, s)
			continue
		}
		for tier, v := range s.Vecs {
			in := serve.Sample{Site: replaySite, Tier: server.TierID(tier), Time: s.Time, Values: v}
			if inject == nil {
				p.Ingest(in)
				continue
			}
			for _, out := range inject.Apply(in) {
				p.Ingest(out)
			}
		}
		if p.sharded != nil {
			p.sharded.Sync()
		}
		for ; fed < len(p.decisions)-lag; fed++ {
			deliver(p.decisions[fed], false)
		}
	}
	if inject != nil {
		for _, s := range inject.Drain() {
			p.Ingest(s)
		}
	}
	if p.loopback {
		if err := p.ship(shipped); err != nil {
			return err
		}
	}
	p.Flush()
	for ; fed < len(p.decisions); fed++ {
		deliver(p.decisions[fed], true)
	}
	return nil
}

// ship serves a stream over the agent wire: frames of loopbackFrameSamples
// scrapes from a wire.Sender, over one loopback TCP connection, through a
// FrameServer into the sharded pipeline. It returns once the connection
// has closed and its lane has flushed.
func (p *pipe) ship(st stream) error {
	fsrv, err := serve.NewFrameServer(serve.ListenConfig{}, serve.NewIngest(p.sharded), nil)
	if err != nil {
		return fmt.Errorf("experiment: loopback frame server: %w", err)
	}
	defer fsrv.Close()
	snd, err := wire.NewSender(fsrv.Addr().String(), wire.AgentConfig{QueueFrames: 4096})
	if err != nil {
		return fmt.Errorf("experiment: loopback sender: %w", err)
	}
	f := wire.Frame{Site: replaySite}
	for ; len(st) > 0; f.Seq++ {
		f.Samples = st[:min(loopbackFrameSamples, len(st))]
		st = st[len(f.Samples):]
		snd.Send(&f)
	}
	snd.Close()
	if ss := snd.Stats(); ss.Dropped() != 0 || ss.Sent != f.Seq {
		return fmt.Errorf("experiment: loopback sender lost frames: %+v", ss)
	}
	fsrv.WaitConns(1)
	return fsrv.Close()
}

// decide serves st unassisted at the replay's front and returns its
// decisions: the frozen or fault-free reference a scenario scores against.
func (r *replay) decide(st stream) ([]serve.Decision, error) {
	p, err := r.open(serve.Config{})
	if err != nil {
		return nil, err
	}
	defer p.close()
	err = p.feed(len(st), st.at, nil, 0, func(serve.Decision, bool) {})
	return p.decisions, err
}

// pass is one managed replay of a stream through a fresh pipeline.
type pass struct {
	cfg    serve.Config    // the scenario's serving callbacks and fusion
	inject *chaos.Injector // per-sample stream transform; nil for none
	// lc is what the scenario overrides of the lifecycle: the drift
	// thresholds, the labeled history a retrain needs (MinTrainWindows)
	// and the shadow margin a candidate must win by (SwapMargin). The
	// scaffold sets every other field.
	lc     registry.Config
	events io.Writer // where lifecycle events are transcribed
	// line transcribes a decision as it is delivered, before the
	// lifecycle sees it; nil transcribes nothing.
	line func(d serve.Decision, w *Window)
}

// served is what a pass leaves behind.
type served struct {
	decisions []serve.Decision
	stats     serve.SiteStats
	guarded   uint64
}

// run serves st at the replay's front with a registry.Manager behind it.
// Ground truth trails the decision stream by one window, and a decision's
// truth is always tr.Windows[Seq-1], whatever the stream dropped.
func (r *replay) run(tr *Trace, st stream, ps pass) (*served, error) {
	p, err := r.open(ps.cfg)
	if err != nil {
		return nil, err
	}
	defer p.close()
	lc := ps.lc
	lc.Pipeline = p
	lc.Initial = r.mon
	lc.Names = r.names
	lc.Train = r.trainConfig(1)
	lc.HistoryWindows = 64
	lc.ShadowWindows = 8
	// At most one retrain decides a replay; the cooldown outlasts the trace.
	lc.CooldownWindows = 10 * len(tr.Windows)
	lc.OnEvent = func(e registry.Event) {
		fmt.Fprintf(ps.events, "  %s\n", e)
	}
	mgr, err := registry.NewManager(lc)
	if err != nil {
		return nil, err
	}
	err = p.feed(len(st), st.at, ps.inject, 1, func(d serve.Decision, _ bool) {
		w := &tr.Windows[d.Seq-1]
		if ps.line != nil {
			ps.line(d, w)
		}
		mgr.Observe(d, w.Truth)
	})
	if err != nil {
		return nil, err
	}
	out := &served{decisions: p.decisions, guarded: mgr.Guarded()}
	out.stats, _ = p.SiteStats(replaySite)
	return out, nil
}

// verdicts maps each decision's Seq to its overload verdict.
func verdicts(ds []serve.Decision) map[int64]bool {
	m := make(map[int64]bool, len(ds))
	for _, d := range ds {
		m[d.Seq] = d.Prediction.Overload
	}
	return m
}
