package main

import (
	"sort"

	"hpcap/internal/serve"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile reads the q-quantile of an ascending slice by nearest rank:
// the value with a share q of the sample at or below it. Empty input
// reads 0.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(q * float64(len(asc)))
	if i >= len(asc) {
		i = len(asc) - 1
	}
	return asc[i]
}

// median is the 0.5-quantile of v, averaging the middle pair of an
// even-sized sample.
func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// The host takes processor time from the sandbox in bursts: for seconds
// at a stretch a segment runs at half speed and a window's decisions take
// several times as long, and between bursts single-thread speed still
// drifts by a tenth. What the host adds is one-sided, so a run's figure is
// read at the quiet twentieth of its segments or closing rounds, not at
// their median: the median of a run follows how much of it the host
// disturbed, the quiet tail follows the program (README, Repeatability,
// has the spreads of each reading). A change that slows every round moves
// the tail as it moves the median; one that adds rare slow rounds does
// not, and shows in serve.decision_lat_p99_ms and gen.pooled_lat_p999_ms.

// quietRate is a run's throughput: the rate its fastest twentieth of
// segments reach.
func quietRate(rates []float64) float64 { return quantile(sorted(rates), 0.95) }

// quietLatency is a run's latency: the figure its quietest twentieth of
// closing rounds stay within.
func quietLatency(rounds []float64) float64 { return quantile(sorted(rounds), 0.05) }

// nsToFloat converts a latency sample for the quantile helpers.
func nsToFloat(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v)
	}
	return out
}

// splitmix64 is the finalizer from Steele et al.'s SplittableRandom.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d4490d9b23e36d
	x ^= x >> 31
	return x
}

// decisionHash folds the fields of a verdict that timing, transport and
// sharding must not change into one word. Summing the words of a run
// gives a digest that is independent of publication order.
func decisionHash(d *serve.Decision) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(d.Site); i++ {
		h ^= uint64(d.Site[i])
		h *= 1099511628211
	}
	var flags uint64
	if d.Prediction.Overload {
		// Bottleneck is meaningful only under overload.
		flags = 1 | uint64(d.Prediction.Bottleneck)<<1
	}
	if d.Degraded {
		flags |= 1 << 8
	}
	if d.LowConfidence {
		flags |= 1 << 9
	}
	return splitmix64(h ^ splitmix64(uint64(d.Seq)<<16|flags))
}
