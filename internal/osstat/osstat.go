// Package osstat synthesizes the Sysstat view of the testbed: the 64
// OS-level metrics the paper collects for comparison against hardware
// counters (§IV.B). The metrics are derived honestly from what a 2.6-kernel
// /proc interface can actually observe on each machine:
//
//   - CPU time split, run queue and load averages see only *runnable*
//     threads — an application tier whose servlet threads are blocked on a
//     slow database looks idle here, which is why OS metrics struggle to
//     see DB-bottleneck overload from the front end.
//   - Memory metrics are nearly constant: the JVM heap and the InnoDB
//     buffer pool are preallocated, so CPU-cache-level thrashing is
//     invisible to the OS — the paper's central argument for hardware
//     counters.
//   - Network, socket and paging metrics follow request flows, which in a
//     closed-loop client population track completed throughput and thus
//     saturate at the same value for "busy but healthy" and "overloaded".
package osstat

import (
	"math"

	"hpcap/internal/chunk"
	"hpcap/internal/server"
	"hpcap/internal/sim"
)

// MetricNames lists the 64 Sysstat metrics in a fixed order; vectors
// returned by Collector.Collect use the same order.
var MetricNames = []string{
	// CPU (7)
	"os_cpu_user", "os_cpu_system", "os_cpu_iowait", "os_cpu_idle",
	"os_cpu_nice", "os_cpu_steal", "os_cpu_irq",
	// Load and processes (6)
	"os_runq_sz", "os_plist_sz", "os_ldavg_1", "os_ldavg_5", "os_ldavg_15",
	"os_procs_blocked",
	// Kernel activity (4)
	"os_cswch_s", "os_intr_s", "os_forks_s", "os_softirq_s",
	// Memory (10)
	"os_kbmemfree", "os_kbmemused", "os_pct_memused", "os_kbbuffers",
	"os_kbcached", "os_kbcommit", "os_pct_commit", "os_kbactive",
	"os_kbinact", "os_kbdirty",
	// Swap (4)
	"os_kbswpfree", "os_kbswpused", "os_pswpin_s", "os_pswpout_s",
	// Paging (6)
	"os_pgpgin_s", "os_pgpgout_s", "os_fault_s", "os_majflt_s",
	"os_pgfree_s", "os_pgscank_s",
	// Disk (5)
	"os_tps", "os_rtps", "os_wtps", "os_bread_s", "os_bwrtn_s",
	// Network interface (8)
	"os_rxpck_s", "os_txpck_s", "os_rxkb_s", "os_txkb_s", "os_rxerr_s",
	"os_txerr_s", "os_rxdrop_s", "os_coll_s",
	// Sockets (6)
	"os_totsck", "os_tcpsck", "os_udpsck", "os_rawsck", "os_ip_frag",
	"os_tcp_tw",
	// TCP (6)
	"os_tcp_active_s", "os_tcp_passive_s", "os_tcp_iseg_s", "os_tcp_oseg_s",
	"os_tcp_retrans_s", "os_tcp_rst_s",
	// Files (2)
	"os_file_nr", "os_inode_nr",
}

// NumMetrics is the number of OS-level metrics (64, as in the paper).
var NumMetrics = len(MetricNames)

// Collector converts interval telemetry into the Sysstat metric vector for
// one machine. It is stateful: load averages and TIME_WAIT socket counts
// decay across samples like the kernel's.
type Collector struct {
	tier  server.TierID
	memKB float64 // machine RAM
	noise float64 // relative measurement noise
	rng   *sim.Source

	ld1, ld5, ld15 float64
	timeWait       float64

	vecs chunk.Of[float64] // Collect's vectors
}

// NewCollector returns an OS metric collector for a tier. memMB is the
// machine's RAM (the paper's app server had 512 MB, the DB server 1 GB);
// noise is the relative measurement noise.
func NewCollector(tier server.TierID, memMB float64, noise float64, seed int64) *Collector {
	return &Collector{
		tier:  tier,
		memKB: memMB * 1024,
		noise: noise,
		rng:   sim.NewSource(seed),
	}
}

// Tier returns the tier this collector observes.
func (c *Collector) Tier() server.TierID { return c.tier }

// Names returns the metric names, aligned with Collect's vector.
func (c *Collector) Names() []string { return MetricNames }

func (c *Collector) jitter(v float64) float64 {
	if c.noise <= 0 {
		return v
	}
	out := v * c.rng.Normal(1, c.noise)
	if out < 0 {
		out = 0
	}
	return out
}

// noisefloor returns non-negative background noise around a tiny mean, for
// metrics that are essentially zero on this testbed.
func (c *Collector) noisefloor(mean float64) float64 {
	v := c.rng.Exp(mean)
	return v
}

// Collect derives the 64 OS metrics for one sampling interval of dt
// seconds into a fresh vector the caller owns for good, carved from the
// collector's chunk (see package chunk).
func (c *Collector) Collect(s server.Snapshot, dt float64) []float64 {
	return c.CollectTo(c.vecs.Carve(NumMetrics), s, dt)
}

// CollectTo derives the 64 OS metrics into dst (metrics.Collector),
// reallocating only when dst is too small.
func (c *Collector) CollectTo(dst []float64, s server.Snapshot, dt float64) []float64 {
	ts := s.Tiers[c.tier]

	busy := ts.BusySeconds / dt
	if busy > 1 {
		busy = 1
	}
	cs := ts.CtxSwitches / dt
	// System time share grows with switching activity.
	sysShare := 0.15 + 0.25*math.Min(1, cs/40000)
	cpuSys := busy * sysShare
	cpuUser := busy - cpuSys
	cpuIOWait := c.noisefloor(0.004)
	cpuIdle := 1 - busy - cpuIOWait
	if cpuIdle < 0 {
		cpuIdle = 0
	}

	// The run queue is sampled at an instant, like sar's runq-sz: the
	// true sub-second queue is bursty (arrivals cluster, quanta expire in
	// packs), so a 1 Hz snapshot carries heavy dispersion that the
	// 30-second window average only partially smooths.
	runq := float64(ts.RunQueue) * c.rng.LogNormal(1, 0.55)
	// Load averages: kernel-style exponential decay over 1/5/15 minutes.
	decay := func(avg *float64, window float64) float64 {
		k := math.Exp(-dt / window)
		*avg = *avg*k + runq*(1-k)
		return *avg
	}
	ld1 := decay(&c.ld1, 60)
	ld5 := decay(&c.ld5, 300)
	ld15 := decay(&c.ld15, 900)

	// Request flows visible to this machine. The app tier sees client
	// traffic; the DB tier sees one query per burst.
	var reqIn, reqOut, established float64
	switch c.tier {
	case server.TierApp:
		reqIn = float64(s.Arrivals) / dt
		reqOut = float64(s.Completions) / dt
		// Emulated browsers keep persistent HTTP/1.1 connections, so the
		// established-socket count follows the client population (offered
		// load), not the in-flight backlog.
		established = float64(s.ActiveEBs) + 26
	default:
		reqIn = float64(ts.Bursts) / dt
		reqOut = reqIn
		// The JDBC pool holds its connections open whether or not they
		// are executing queries.
		established = 8 + 6
	}
	// TIME_WAIT sockets persist for 60 s.
	k := math.Exp(-dt / 60)
	c.timeWait = c.timeWait*k + reqOut*60*(1-k)

	// Packet rates: requests are a handful of packets, responses a page's
	// worth.
	rxpck := reqIn*4 + reqOut*2
	txpck := reqOut*9 + reqIn*2
	rxkb := reqIn*1.1 + reqOut*0.4
	txkb := reqOut*11 + reqIn*0.5

	// Preallocated server memory: JVM heap / InnoDB buffer pool.
	var used, cached, plist float64
	switch c.tier {
	case server.TierApp:
		used = 400 * 1024 // kB: JVM heap + OS
		cached = 60 * 1024
		plist = 205
	default:
		used = 780 * 1024 // InnoDB buffer pool dominates
		cached = 160 * 1024
		plist = 72
	}
	free := c.memKB - used

	faults := reqIn*25 + 40
	diskWrites := reqOut * 0.9 // log flushes, commits
	diskReads := c.noisefloor(0.4)
	intr := 1000 + rxpck + txpck + diskWrites // timer HZ + devices

	if cap(dst) < NumMetrics {
		dst = make([]float64, NumMetrics)
	}
	v := dst[:NumMetrics]
	// CPU (7)
	v[0] = c.jitter(cpuUser * 100)
	v[1] = c.jitter(cpuSys * 100)
	v[2] = cpuIOWait * 100
	v[3] = c.jitter(cpuIdle * 100)
	v[4] = c.noisefloor(0.01)
	v[5] = 0
	v[6] = c.jitter(0.2 + rxpck/500)
	// Load and processes (6)
	v[7] = c.jitter(runq)
	v[8] = c.jitter(plist)
	v[9] = c.jitter(ld1)
	v[10] = c.jitter(ld5)
	v[11] = c.jitter(ld15)
	v[12] = c.noisefloor(0.05)
	// Kernel activity (4)
	v[13] = c.jitter(cs)
	v[14] = c.jitter(intr)
	v[15] = c.noisefloor(0.3)
	v[16] = c.jitter(rxpck*0.8 + 120)
	// Memory (10)
	v[17] = c.jitter(free)
	v[18] = c.jitter(used)
	v[19] = c.jitter(used / c.memKB * 100)
	v[20] = c.jitter(24 * 1024)
	v[21] = c.jitter(cached)
	v[22] = c.jitter(used * 1.3)
	v[23] = c.jitter(used * 1.3 / c.memKB * 100)
	v[24] = c.jitter(used * 0.7)
	v[25] = c.jitter(used * 0.2)
	v[26] = c.jitter(diskWrites*4 + 60)
	// Swap (4)
	v[27] = 1024 * 1024
	v[28] = c.noisefloor(3)
	v[29] = 0
	v[30] = 0
	// Paging (6)
	v[31] = c.jitter(diskReads * 6)
	v[32] = c.jitter(diskWrites * 7)
	v[33] = c.jitter(faults)
	v[34] = c.noisefloor(0.02)
	v[35] = c.jitter(faults * 1.1)
	v[36] = 0
	// Disk (5)
	v[37] = c.jitter(diskWrites + diskReads)
	v[38] = c.jitter(diskReads)
	v[39] = c.jitter(diskWrites)
	v[40] = c.jitter(diskReads * 14)
	v[41] = c.jitter(diskWrites * 16)
	// Network (8)
	v[42] = c.jitter(rxpck)
	v[43] = c.jitter(txpck)
	v[44] = c.jitter(rxkb)
	v[45] = c.jitter(txkb)
	v[46] = 0
	v[47] = 0
	v[48] = c.noisefloor(0.02)
	v[49] = 0
	// Sockets (6)
	v[50] = c.jitter(established + c.timeWait + 95)
	v[51] = c.jitter(established + 12)
	v[52] = c.jitter(6)
	v[53] = 0
	v[54] = c.noisefloor(0.05)
	v[55] = c.jitter(c.timeWait)
	// TCP (6)
	v[56] = c.jitter(0.4 + reqIn*0.02) // outbound connects (pooled)
	v[57] = c.jitter(reqIn)            // passive opens: one per client request
	v[58] = c.jitter(rxpck * 0.95)
	v[59] = c.jitter(txpck * 0.95)
	v[60] = c.noisefloor(0.15)
	v[61] = c.noisefloor(0.05)
	// Files (2)
	v[62] = c.jitter(1800 + established*2)
	v[63] = c.jitter(52000)
	return v
}
