package main

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"syscall"
)

// rssMiB reads the process's resident set from /proc/self/statm.
func rssMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(string(f[1]), 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rssPeak collects the resident set at the polls a workload makes — every
// segment end and every paced round — and reads the level three polls in
// four stay within. The highest poll follows the host: a stall backs
// frames up in a sender's queue for a few rounds, and over ten unchanged
// runs of fleet-net the highest poll read 82 to 112 MiB where the upper
// quartile read 78.7 to 81.3. The kernel's own high-water mark would
// also cover set-up.
type rssPeak []float64

func (p *rssPeak) poll() { *p = append(*p, rssMiB()) }

func (p rssPeak) mib() float64 { return quantile(sorted(p), 0.75) }

// cpuSeconds is the process's user plus system time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// ioCalls reads the process's cumulative read and write system calls
// from /proc/self/io (zeros where the file is unreadable).
func ioCalls() (reads, writes float64) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		k, v, ok := bytes.Cut(line, []byte(": "))
		if !ok {
			continue
		}
		n, _ := strconv.ParseFloat(string(bytes.TrimSpace(v)), 64)
		switch string(k) {
		case "syscr":
			reads = n
		case "syscw":
			writes = n
		}
	}
	return reads, writes
}

// hostJiffies reads the machine's cumulative processor time from
// /proc/stat: all of it, and the part the hypervisor gave to someone else
// while this guest had work to run.
func hostJiffies() (total, stolen float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	for i, f := range bytes.Fields(line) {
		if i == 0 || i > 8 { // "cpu", then user … steal; guest time is already in user
			continue
		}
		v, _ := strconv.ParseFloat(string(f), 64)
		total += v
		if i == 8 {
			stolen = v
		}
	}
	return total, stolen
}

// procSnap is what the ledger's proc.* rows difference around a phase.
type procSnap struct {
	cpu          float64
	mallocs      uint64
	gcCycles     uint32
	gcPause      uint64
	host, stolen float64
}

func snapProc() procSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := procSnap{cpu: cpuSeconds(), mallocs: m.Mallocs, gcCycles: m.NumGC, gcPause: m.PauseTotalNs}
	s.host, s.stolen = hostJiffies()
	return s
}

// procRows fills the rows differenced around a closed-loop phase.
func procRows(rows map[string]float64, before, after procSnap) {
	rows["proc.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
	rows["proc.gc_pause_ms"] = float64(after.gcPause-before.gcPause) / 1e6
	rows["proc.steal_share"] = ratio(after.stolen-before.stolen, after.host-before.host)
}
