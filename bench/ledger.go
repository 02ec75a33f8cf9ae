package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"hpcap/internal/chaos"
	"hpcap/internal/core"
	"hpcap/internal/cpu"
	"hpcap/internal/fuse"
	"hpcap/internal/metrics"
	"hpcap/internal/serve"
	"hpcap/internal/server"
	"hpcap/internal/simsite"
	"hpcap/internal/wal"
	"hpcap/internal/wire"
)

// outDir receives what a run leaves behind: span files and the replay's
// write-ahead logs. The benchmark may write only inside its checkout, so
// the logs sit on the checkout's file system, not on tmpfs.
const outDir = "out"

// replaySites sizes the short drains of the ledger: enough sites that a
// batch fills, few enough that every replay together stays a few seconds.
const replaySites = 1000

// timeOps runs fn, which performs ops operations, five times and returns
// the median cost of one operation in nanoseconds.
func timeOps(ops int, fn func()) float64 {
	var runs []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		fn()
		runs = append(runs, float64(time.Since(t0).Nanoseconds())/float64(ops))
	}
	return median(runs)
}

// legacyDAG folds the tier-DAG testbed's snapshot to the two-tier shape,
// so one replay loop drives either simulator.
type legacyDAG struct{ *server.DAGTestbed }

func (d legacyDAG) RunInterval(dt float64) server.Snapshot { return d.RunIntervalLegacy(dt) }

// steadySim is the fleet workloads' simulator replay: the testbed their
// recording came from, or its twin on the degenerate two-tier DAG.
func steadySim(seed int64) func(dag bool) ([]simsite.Testbed, error) {
	return func(dag bool) ([]simsite.Testbed, error) {
		tb, cfg, err := steadyTestbed(seed)
		if err != nil || !dag {
			return []simsite.Testbed{tb}, err
		}
		d, err := server.NewDAGTestbed(server.TwoTierTopology(cfg), steadySchedule())
		return []simsite.Testbed{legacyDAG{d}}, err
	}
}

// replayLayers measures each layer alone and single-threaded, feeding the
// workload's own recordings to one exported function at a time. It fills
// the replay rows of the ledger.
func replayLayers(e *env, out *outcome, rows map[string]float64) error {
	clean, faulty := out.clean, out.faulty
	dim := len(clean[0][0])
	rows["core.train_s"] = e.trainS

	// The simulator, and the collector on its snapshots.
	var snaps []server.Snapshot
	for _, dag := range []bool{false, true} {
		tbs, err := out.sim(dag)
		if err != nil {
			return err
		}
		for _, tb := range tbs {
			if err := tb.Start(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		for i := 0; i < out.simSeconds; i++ {
			for _, tb := range tbs {
				snap := tb.RunInterval(1)
				if !dag && len(snaps) < recordSeconds {
					snaps = append(snaps, snap)
				}
			}
		}
		us := float64(time.Since(t0).Microseconds()) / float64(out.simSeconds*len(tbs))
		if dag {
			rows["server.dag_run_interval_us"] = us
		} else {
			rows["server.run_interval_us"] = us
		}
	}
	coll := cpu.NewCollector(server.TierApp, e.lab.Server.App.Machine, 0.02, e.seed)
	buf := make([]float64, cpu.NumMetrics)
	rows["cpu.collect_ns"] = timeOps(20*len(snaps), func() {
		for rep := 0; rep < 20; rep++ {
			for i := range snaps {
				buf = coll.CollectTo(buf, snaps[i], 1)
			}
		}
	})

	// The fault injector on the clean recording.
	sched, err := chaos.Parse(recordingFaults)
	if err != nil {
		return err
	}
	inj := chaos.NewInjector(sched, e.seed)
	perPass := len(clean) * tiers
	rows["chaos.inject_ns"] = timeOps(50*perPass, func() {
		for rep := 0; rep < 50; rep++ {
			for i := range clean {
				for tier := server.TierID(0); tier < server.NumTiers; tier++ {
					inj.Apply(serve.Sample{Site: "replay", Tier: tier, Time: float64(i + 1), Values: clean[i][tier]})
				}
			}
		}
	})

	// The fuser on each recording, one filter bank per tier as in serving.
	for _, r := range []struct {
		row string
		rec []scrape
	}{{"fuse.clean_ns", clean}, {"fuse.faulty_ns", faulty}} {
		var fusers [server.NumTiers]*fuse.Fuser
		for tier := range fusers {
			if fusers[tier], err = fuse.New(fuse.DefaultConfig(), dim); err != nil {
				return err
			}
		}
		rows[r.row] = timeOps(50*perPass, func() {
			for rep := 0; rep < 50; rep++ {
				for i := range r.rec {
					for tier := range fusers {
						fusers[tier].Fuse(r.rec[i][tier])
					}
				}
			}
		})
	}

	// The window aggregator.
	agg, err := metrics.NewValuesAggregator(dim, window)
	if err != nil {
		return err
	}
	t := 0.0
	rows["metrics.push_ns"] = timeOps(200*len(clean), func() {
		for rep := 0; rep < 200; rep++ {
			for i := range clean {
				t++
				agg.PushValues(t, clean[i][0])
			}
		}
	})

	// The frame codec on the recording's frames.
	frames := make([]wire.Frame, 0, len(clean)/frameSamples)
	for i := 0; i+frameSamples <= len(clean); i += frameSamples {
		f := wire.Frame{Site: "site-000000", Seq: uint64(i / frameSamples)}
		for k := i; k < i+frameSamples; k++ {
			f.Samples = append(f.Samples, wire.Sample{Time: float64(k + 1), Vecs: clean[k]})
		}
		frames = append(frames, f)
	}
	payloads := make([][]byte, len(frames))
	for i := range frames {
		payloads[i] = wire.AppendFrame(nil, &frames[i])
	}
	rows["wire.frame_bytes"] = float64(len(payloads[0]))
	var enc []byte
	rows["wire.encode_ns"] = timeOps(200*len(frames), func() {
		for rep := 0; rep < 200; rep++ {
			for i := range frames {
				enc = wire.AppendFrame(enc[:0], &frames[i])
			}
		}
	})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rows["wire.decode_ns"] = timeOps(200*len(payloads), func() {
		for rep := 0; rep < 200; rep++ {
			for _, p := range payloads {
				if _, err := wire.DecodeFrame(p); err != nil {
					panic(err) // the benchmark encoded it itself
				}
			}
		}
	})
	runtime.ReadMemStats(&m1)
	rows["wire.decode_allocs_per_frame"] = float64(m1.Mallocs-m0.Mallocs) / float64(5*200*len(payloads))

	// The decision plane on the recording's window means.
	cm, err := e.monitor.Compile()
	if err != nil {
		return err
	}
	obs := windowMeans(clean)
	sess := cm.NewSession()
	var pred core.Prediction
	rows["core.decide_ns"] = timeOps(2000*len(obs), func() {
		for rep := 0; rep < 2000; rep++ {
			for i := range obs {
				if err := sess.PredictInto(obs[i], &pred); err != nil {
					panic(err)
				}
			}
		}
	})
	const batch = 64
	var (
		db    core.DecideBatch
		bsess = make([]*core.CompiledSession, batch)
		bobs  = make([]core.Observation, batch)
		bout  = make([]core.Prediction, batch)
	)
	for i := range bsess {
		bsess[i], bobs[i] = cm.NewSession(), obs[i%len(obs)]
	}
	rows["core.decide_batch_ns"] = timeOps(100*batch, func() {
		for rep := 0; rep < 100; rep++ {
			cm.DecideAll(&db, bsess, bobs, bout)
		}
	})

	// The serving engine on the recordings: one shard (the consumer's
	// service demand) and the unsharded pipeline (the single-threaded
	// baseline), then connection ingest on decoded frames.
	f := newFleet(&env{monitor: e.monitor, clean: clean, faulty: faulty},
		fleetSpec{sites: replaySites, fuse: out.fuse, faultyMod: out.faultyMod, segSeconds: recordSeconds})
	samples := replaySites * recordSeconds * tiers
	{
		p, err := newPath(f, &sink{}, 1, true, nil)
		if err != nil {
			return err
		}
		t0 := time.Now()
		for sec := 1; sec <= recordSeconds && err == nil; sec++ {
			err = p.round(sec, nil, 0)
		}
		if err == nil {
			err = p.barrier()
		}
		rows["serve.shard1_ns_per_sample"] = float64(time.Since(t0).Nanoseconds()) / float64(samples)
		p.close()
		if err != nil {
			return err
		}
	}
	{
		pipe, err := serve.NewPipeline(e.monitor, f.serveConfig(&sink{}))
		if err != nil {
			return err
		}
		t0 := time.Now()
		for sec := 1; sec <= recordSeconds; sec++ {
			c, fy := f.at(sec)
			for i, name := range f.names {
				s := c
				if f.faulty[i] {
					s = fy
				}
				for tier := server.TierID(0); tier < server.NumTiers; tier++ {
					pipe.Ingest(serve.Sample{Site: name, Tier: tier, Time: float64(sec), Values: s[tier]})
				}
			}
		}
		rows["serve.pipeline_ns_per_sample"] = float64(time.Since(t0).Nanoseconds()) / float64(samples)
	}
	{
		sp, err := serve.NewShardedPipeline(e.monitor, f.serveConfig(&sink{}), serve.ShardConfig{Shards: fleetShards})
		if err != nil {
			return err
		}
		lane := serve.NewIngest(sp).Conn()
		t0 := time.Now()
		for k := range frames {
			fr := frames[k]
			for _, name := range f.names {
				fr.Site = name
				lane.Accept(&fr)
			}
		}
		rows["serve.accept_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(len(frames)*replaySites)
		lane.Close()
		sp.Close()
	}

	// The write-ahead log on the same frames, without fsync and with one
	// per record, then its replay.
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	walPath := filepath.Join(outDir, "replay.wal")
	for _, r := range []struct {
		row       string
		syncEvery int
		records   int
	}{{"wal.append_ns", -1, 20000}, {"wal.append_sync_ns", 1, 100}} {
		os.Remove(walPath)
		log, _, err := wal.Open(walPath, wal.Config{SyncEvery: r.syncEvery})
		if err != nil {
			return err
		}
		t0 := time.Now()
		for i := 0; i < r.records; i++ {
			if err := log.Append(payloads[i%len(payloads)]); err != nil {
				return err
			}
		}
		rows[r.row] = float64(time.Since(t0).Nanoseconds()) / float64(r.records)
		if err := log.Close(); err != nil {
			return err
		}
	}
	t0 := time.Now()
	n, err := wal.Replay(walPath, wal.Config{}, func([]byte) error { return nil })
	if err != nil {
		return err
	}
	rows["wal.replay_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(max(n, 1))
	os.Remove(walPath)

	return probeNet(e, f, rows, walPath)
}

// probeNet drains the recordings over loopback twice, without and with
// the write-ahead log as the server's frame hook, and fills the rows that
// only a live connection can give.
func probeNet(e *env, f *fleet, rows map[string]float64, walPath string) error {
	// A tenth of the replay's sites: with the log on, every frame waits
	// for an fsync of the checkout's disk.
	f = newFleet(f.env, fleetSpec{sites: replaySites / 10, net: true, fuse: f.spec.fuse, faultyMod: f.spec.faultyMod, segSeconds: 30})
	usPerFrame := func(hook func([]byte) error, minSegs int, tr *tracer) ([]float64, pathStats, error) {
		p, err := newPath(f, &sink{}, fleetShards, true, hook)
		if err != nil {
			return nil, pathStats{}, err
		}
		defer p.close()
		var peak rssPeak
		dr, err := drain(p, f, 0, minSegs, tr, 0, &peak)
		if err != nil {
			return nil, pathStats{}, err
		}
		frames := float64(len(f.names) * f.spec.segSeconds / frameSamples)
		us := make([]float64, len(dr.segS))
		for i, s := range dr.segS {
			us[i] = s * 1e6 / frames
		}
		return us, p.stats(), nil
	}
	r0, w0 := ioCalls()
	// A tracer, because only traced rounds time their Send calls.
	bare, st, err := usPerFrame(nil, 16, newTracer())
	if err != nil {
		return err
	}
	r1, w1 := ioCalls()
	rows["wire.send_ns"] = ratio(float64(st.callNs), float64(st.calls))
	rows["wire.write_calls_per_frame"] = (w1 - w0) / float64(st.net.framesOffered)
	rows["wire.read_calls_per_frame"] = (r1 - r0) / float64(st.net.framesOffered)

	log, _, err := wal.Open(walPath, wal.Config{})
	if err != nil {
		return err
	}
	logged, _, err := usPerFrame(log.Append, 3, nil)
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	os.Remove(walPath)
	if err != nil {
		return err
	}
	extra := make([]float64, len(logged))
	base := median(bare)
	for i, us := range logged {
		extra[i] = us - base
	}
	asc := sorted(extra)
	rows["wal.e2e_us_per_frame"] = median(extra)
	rows["wal.e2e_us_per_frame_iqr"] = quantile(asc, 0.75) - quantile(asc, 0.25)
	return nil
}

// windowMeans folds a recording into per-window mean vectors, the
// decision plane's input.
func windowMeans(rec []scrape) []core.Observation {
	var out []core.Observation
	for lo := 0; lo+window <= len(rec); lo += window {
		o := core.Observation{Time: float64(lo + window)}
		for tier := range o.Vectors {
			mean := make([]float64, len(rec[lo][tier]))
			for k := lo; k < lo+window; k++ {
				for j, v := range rec[k][tier] {
					mean[j] += v / float64(window)
				}
			}
			o.Vectors[tier] = mean
		}
		out = append(out, o)
	}
	return out
}

// printLedger writes the table whose rows, with the unattributed
// remainder, sum to the processor time one tier-sample cost end to end.
func printLedger(w io.Writer, name string, out *outcome, rows map[string]float64) {
	var sum float64
	fmt.Fprintf(w, "\nledger %s: processor ns per tier-sample, drain phase\n", name)
	fmt.Fprintf(w, "  %-28s %12s %8s\n", "layer replay", "ns/sample", "share")
	for _, t := range out.path {
		ns := rows[t.row] * t.perSample
		sum += ns
		fmt.Fprintf(w, "  %-28s %12.1f %7.1f%%\n", t.row, ns, 100*ns/out.cpuNsPerSample)
	}
	un := out.cpuNsPerSample - sum
	fmt.Fprintf(w, "  %-28s %12.1f %7.1f%%\n", "unattributed", un, 100*un/out.cpuNsPerSample)
	fmt.Fprintf(w, "  %-28s %12.1f %7.1f%%  (wall %.1f ns/sample)\n", "end to end", out.cpuNsPerSample, 100.0, 1e9/out.samplesPerS)
	rows["ledger.sum_ns_per_sample"] = sum
	rows["ledger.unattributed_ns_per_sample"] = un
}

// printSelfTimes writes the traced run's self time by span name.
func printSelfTimes(w io.Writer, tr *tracer) {
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "\nself time by span (per-call spans are sampled, so read them as shares of their kind)\n")
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %12.3f ms\n", n, float64(self[n].Microseconds())/1e3)
	}
}
