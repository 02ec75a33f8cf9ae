// Package server simulates the paper's two-tier e-commerce testbed: a
// Tomcat-like application tier in front of a MySQL-like database tier,
// driven by TPC-W emulated browsers. The simulation is discrete-event and
// deterministic.
//
// Overload is produced mechanistically rather than by labeling:
//
//   - The application tier dilates CPU bursts as the number of runnable
//     threads grows (scheduler and context-switch overhead plus i-cache/ITLB
//     pollution) — the failure mode of the ordering mix, where "there were
//     too many threads in concurrent execution" (paper §V.B).
//   - The database tier dilates CPU bursts as the combined working set of
//     concurrently active queries overwhelms the effective cache — the
//     failure mode of the browsing mix, where "system overload was due to a
//     small percentage of heavy requests in the database server".
//
// Because dilation both consumes extra cycles (stalls, cache misses,
// context switches — visible in hardware counters) and reduces effective
// capacity (visible as application-level throughput stagnation), hardware
// metrics correlate with high-level healthiness by construction, which is
// the physical premise of the paper.
package server

import (
	"errors"
	"fmt"
)

// MachineConfig describes one physical server's processor, loosely modeled
// on the paper's testbed (app: Pentium 4 2.0 GHz; DB: Pentium D 2.8 GHz,
// both Intel NetBurst without hyperthreading).
type MachineConfig struct {
	Name    string
	Speed   float64 // CPU speed relative to the app machine (app 1.0)
	ClockHz float64 // clock rate for cycle accounting
	BaseIPC float64 // ideal retired instructions per cycle when cache-resident
	// InstrPerDemandSec converts normalized CPU demand (seconds at speed
	// 1.0) to retired instructions; machine independent so the same
	// request retires the same instruction count everywhere.
	InstrPerDemandSec float64
	// L2RefPerInstr is the fraction of instructions referencing L2.
	L2RefPerInstr float64
	// BranchPerInstr is the fraction of branch instructions.
	BranchPerInstr float64
}

// TierConfig describes one tier's software server.
type TierConfig struct {
	Machine MachineConfig
	// MaxWorkers bounds concurrently bound workers: servlet threads on
	// the app tier, connections on the DB tier.
	MaxWorkers int

	// Contention model. BaseMissRatio is the L2 miss ratio of an
	// unloaded server. MaxMissRatio is approached under full thrash.
	BaseMissRatio float64
	MaxMissRatio  float64
	// ThrashMB scales cache contention: when the combined working set of
	// active workers reaches ThrashMB the miss ratio is halfway between
	// base and max (working-set saturation term x²/(1+x²)).
	ThrashMB float64
	// MissPenalty is the service-time dilation per unit miss ratio.
	MissPenalty float64
	// CtxSwitchK is the service-time dilation at a full runnable queue
	// (scheduler + context-switch overhead); dilation grows as
	// (runnable/MaxWorkers)^1.5.
	CtxSwitchK float64
	// CtxSwitchRate is context switches per busy second per runnable
	// worker.
	CtxSwitchRate float64

	// Background models the server's housekeeping load (InnoDB purge and
	// statistics refresh, log archiving, scheduled jobs): up to
	// BackgroundRate CPU-seconds of work per second executed at idle
	// priority, never delaying request processing. Background work keeps
	// CPU utilization and the run queue high even when the site is
	// healthy — the reason OS-level utilization is a poor capacity
	// signal (§II.A) — while its cache behaviour (BackgroundMiss) stays
	// benign, so hardware counters still expose foreground thrashing.
	BackgroundRate    float64
	BackgroundThreads int
	BackgroundMiss    float64

	// BackgroundBankSec caps how much deferred housekeeping can bank up
	// while the foreground is busy (nightly reports, purge backlogs). A
	// deep bank means the machine runs flat out catching up long after a
	// busy period ends — healthy windows with pegged CPU that OS metrics
	// cannot tell from overload.
	BackgroundBankSec float64

	// LockBlockFrac is the fraction of queued workers that are blocked on
	// locks rather than runnable when the tier is fully thrashed (buffer
	// pool mutexes and row locks convoy behind cache-miss-stretched
	// critical sections). Blocked workers sleep in S state — invisible to
	// the OS run queue and load average, which is why "excessive work"
	// overload hides from OS metrics while the hardware miss ratio sees
	// it directly. The blocking fraction scales with the instantaneous
	// cache contention.
	LockBlockFrac float64
}

// quantumSec is every tier CPU's round-robin scheduling quantum,
// approximating a Linux 2.6 timeslice.
const quantumSec = 0.006

// Config assembles the whole testbed.
type Config struct {
	App TierConfig
	DB  TierConfig
	// NetworkHop is the mean one-way network latency between machines in
	// seconds (fast Ethernet on the paper's testbed).
	NetworkHop float64
	// Seed drives all randomness in the testbed.
	Seed int64
}

// DefaultConfig returns the calibrated two-tier testbed. The app machine is
// the slower of the two, as on the paper's testbed, which pushes the
// ordering-mix bottleneck onto the app tier and the browsing-mix bottleneck
// onto the DB tier.
func DefaultConfig() Config {
	return Config{
		App: TierConfig{
			Machine: MachineConfig{
				Name:              "app",
				Speed:             1.0,
				ClockHz:           2.0e9,
				BaseIPC:           0.9,
				InstrPerDemandSec: 1.8e9,
				L2RefPerInstr:     0.055,
				BranchPerInstr:    0.17,
			},
			MaxWorkers:    150,
			BaseMissRatio: 0.020,
			MaxMissRatio:  0.24,
			// The app tier's cache pressure comes mostly from context
			// switching, so the working-set term is mild.
			ThrashMB:      2000,
			MissPenalty:   3.0,
			CtxSwitchK:    1.1,
			CtxSwitchRate: 55,
			// Log rotation and JMX polling: a sliver of idle-priority work.
			BackgroundRate:    0.05,
			BackgroundThreads: 1,
			BackgroundMiss:    0.02,
			BackgroundBankSec: 2,
		},
		DB: TierConfig{
			Machine: MachineConfig{
				Name:              "db",
				Speed:             1.4,
				ClockHz:           2.8e9,
				BaseIPC:           0.9,
				InstrPerDemandSec: 1.8e9,
				L2RefPerInstr:     0.075,
				BranchPerInstr:    0.14,
			},
			// Effective concurrency is capped by the app tier's JDBC
			// connection pool (the classic DBCP default of 8), not
			// MySQL's max_connections: a handful of heavy queries can
			// monopolize the database while its own run queue stays
			// short — the "excessive work" overload OS metrics miss.
			MaxWorkers:    8,
			BaseMissRatio: 0.025,
			MaxMissRatio:  0.38,
			ThrashMB:      120,
			MissPenalty:   6.0,
			// The DB runs few processes and its waiters sleep on locks,
			// so switching stays near one per quantum regardless of load.
			CtxSwitchK:    0.15,
			CtxSwitchRate: 4,
			// InnoDB purge/stats threads and nightly report queries soak
			// well over half of whatever CPU the foreground leaves idle.
			BackgroundRate:    0.62,
			BackgroundThreads: 2,
			BackgroundMiss:    0.035,
			BackgroundBankSec: 90,
			// Thrashed queries convoy on buffer-pool and row locks: at
			// full thrash nearly every waiting connection sleeps behind
			// the mutex held by the miss-stalled query at the head.
			LockBlockFrac: 0.92,
		},
		NetworkHop: 0.0004,
		Seed:       1,
	}
}

// Validate returns one error per violated constraint. The simulator
// sits at the bottom of the import graph, below the core package, so
// unlike the higher-layer configs these errors carry no shared
// sentinel — join them with errors.Join and match on the message.
func (c Config) Validate() []error {
	var errs []error
	errs = append(errs, tierErrs("app tier", c.App)...)
	errs = append(errs, tierErrs("db tier", c.DB)...)
	if c.NetworkHop < 0 {
		errs = append(errs, errors.New("server: NetworkHop must be non-negative"))
	}
	return errs
}

// tierErrs checks one tier's machine and software constraints, returning
// one error per violation — shared between the two-tier Config and
// the per-pool checks of TopologyConfig.
func tierErrs(name string, t TierConfig) []error {
	var errs []error
	if t.MaxWorkers <= 0 {
		errs = append(errs, fmt.Errorf("server: %s MaxWorkers must be positive", name))
	}
	if t.Machine.Speed <= 0 || t.Machine.ClockHz <= 0 {
		errs = append(errs, fmt.Errorf("server: %s machine speed/clock must be positive", name))
	}
	if t.Machine.BaseIPC <= 0 || t.Machine.InstrPerDemandSec <= 0 {
		errs = append(errs, fmt.Errorf("server: %s machine IPC/instruction rate must be positive", name))
	}
	if t.BaseMissRatio < 0 || t.MaxMissRatio < t.BaseMissRatio || t.MaxMissRatio >= 1 {
		errs = append(errs, fmt.Errorf("server: %s miss ratios invalid (base %v, max %v)",
			name, t.BaseMissRatio, t.MaxMissRatio))
	}
	if t.ThrashMB <= 0 {
		errs = append(errs, fmt.Errorf("server: %s ThrashMB must be positive", name))
	}
	return errs
}
