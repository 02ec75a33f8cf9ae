package main

import (
	"fmt"
	"time"

	"hpcap/internal/chaos"
	"hpcap/internal/core"
	"hpcap/internal/cpu"
	"hpcap/internal/experiment"
	"hpcap/internal/metrics"
	"hpcap/internal/predictor"
	"hpcap/internal/serve"
	"hpcap/internal/server"
	"hpcap/internal/tpcw"
)

// scrape is one site-second: every tier's counter vector.
type scrape = [server.NumTiers][]float64

// recordSeconds is the length of the recording the fleet workloads cycle.
const recordSeconds = 60

// recordingFaults is the value-fault program the pre-faulted recording
// carries: wrapped reads on both tiers, then a stuck database counter
// bank. Value faults only, so every second still holds both vectors.
const recordingFaults = "nan at=8 for=12 p=0.35; stuck tier=db at=30 for=10; nan tier=app at=46 for=8 p=0.5"

// env is the set-up every workload shares: the trained monitor and the
// recorded inputs. The monitor is part of the program under test, so it
// is trained at the lab's fixed seed; only the inputs follow --seed.
type env struct {
	lab     *experiment.Lab
	monitor *core.Monitor
	seed    int64
	clean   []scrape
	faulty  []scrape
	trainS  float64
}

func newEnv(seed int64) (*env, error) {
	t0 := time.Now()
	lab := experiment.NewLab(experiment.QuickScale())
	monitor, err := lab.TrainMonitor(metrics.LevelHPC, predictor.Config{})
	if err != nil {
		return nil, fmt.Errorf("train monitor: %w", err)
	}
	e := &env{lab: lab, monitor: monitor, seed: seed, trainS: time.Since(t0).Seconds()}
	if e.clean, err = record(seed); err != nil {
		return nil, err
	}
	if e.faulty, err = prefault(e.clean, seed); err != nil {
		return nil, err
	}
	return e, nil
}

// steadySchedule is the load the recording is taken under: a steady
// browsing population below the knee.
func steadySchedule() tpcw.Schedule {
	return tpcw.Steady(tpcw.Browsing(), 200, recordSeconds+1)
}

// steadyTestbed is the site the recording is taken from.
func steadyTestbed(seed int64) (*server.Testbed, server.Config, error) {
	cfg := server.DefaultConfig()
	cfg.Seed = seed
	tb, err := server.NewTestbed(cfg, steadySchedule())
	return tb, cfg, err
}

// record samples one minute of per-tier hardware-counter vectors.
func record(seed int64) ([]scrape, error) {
	tb, cfg, err := steadyTestbed(seed)
	if err != nil {
		return nil, err
	}
	if err := tb.Start(); err != nil {
		return nil, err
	}
	machines := [server.NumTiers]server.MachineConfig{cfg.App.Machine, cfg.DB.Machine}
	var coll [server.NumTiers]*cpu.Collector
	for tier := server.TierID(0); tier < server.NumTiers; tier++ {
		coll[tier] = cpu.NewCollector(tier, machines[tier], 0.02, seed*10+int64(tier)+100)
	}
	rec := make([]scrape, recordSeconds)
	for i := range rec {
		snap := tb.RunInterval(1)
		for tier := server.TierID(0); tier < server.NumTiers; tier++ {
			rec[i][tier] = coll[tier].Collect(snap, 1)
		}
	}
	return rec, nil
}

// prefault runs a recording through the seeded fault injector once, so
// replaying the copy costs the pipeline under test nothing but the
// faults themselves.
func prefault(clean []scrape, seed int64) ([]scrape, error) {
	sched, err := chaos.Parse(recordingFaults)
	if err != nil {
		return nil, err
	}
	inj := chaos.NewInjector(sched, seed)
	out := make([]scrape, len(clean))
	for i := range clean {
		for tier := server.TierID(0); tier < server.NumTiers; tier++ {
			got := inj.Apply(serve.Sample{Site: "recording", Tier: tier, Time: float64(i + 1), Values: clean[i][tier]})
			if len(got) != 1 {
				return nil, fmt.Errorf("prefault: value fault emitted %d samples at second %d", len(got), i+1)
			}
			out[i][tier] = got[0].Values
		}
	}
	return out, nil
}
