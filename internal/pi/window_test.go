package pi

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"hpcap/internal/server"
	"hpcap/internal/tpcw"
)

// snapStream runs a testbed over the schedule and returns its 1-second
// snapshots, folded to the two tier slots as every collector sees them.
func snapStream(t *testing.T, topo server.TopologyConfig, sched tpcw.Schedule) []server.Snapshot {
	t.Helper()
	topo.Seed = 3
	tb, err := server.NewDAGTestbed(topo, sched)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	out := make([]server.Snapshot, int(sched.Duration()))
	for i := range out {
		out[i] = tb.RunIntervalLegacy(1)
	}
	return out
}

// referenceStreams are the snapshot streams the accumulator is held to
// its references on: the two-tier testbed and the reference tier DAG,
// each under a steady, a ramping and a flash-crowd schedule.
func referenceStreams(t *testing.T) map[string][]server.Snapshot {
	t.Helper()
	scheds := map[string]tpcw.Schedule{
		"steady": tpcw.Steady(tpcw.Browsing(), 300, 240),
		"ramp":   tpcw.Ramp(tpcw.Ordering(), 50, 700, 4, 60),
		"flash":  tpcw.FlashCrowd(tpcw.Shopping(), 200, 1600, 60, 60, 60, 3),
	}
	topos := map[string]server.TopologyConfig{
		"two-tier": server.TwoTierTopology(server.DefaultConfig()),
		"dag":      server.DefaultTopologyConfig(),
	}
	out := make(map[string][]server.Snapshot)
	for tn, topo := range topos {
		for sn, sched := range scheds {
			out[tn+"/"+sn] = snapStream(t, topo, sched)
		}
	}
	return out
}

// handStreams are hand-built snapshots at the edges of the window
// arithmetic: windows with no completions, and tiers with equal
// foreground busy time.
func handStreams() map[string][]server.Snapshot {
	idle := make([]server.Snapshot, 6)
	for i := range idle {
		idle[i] = server.Snapshot{Time: float64(i + 1), Arrivals: 3 * i, ActiveEBs: 40}
	}
	tied := make([]server.Snapshot, 6)
	for i := range tied {
		s := server.Snapshot{Time: float64(i + 1), Arrivals: 9, Completions: 7, MeanRT: 0.25 * float64(i), ActiveEBs: 50}
		s.Tiers[server.TierApp].FgBusySeconds = 0.3
		s.Tiers[server.TierDB].FgBusySeconds = 0.3
		s.Tiers[server.TierApp].BusySeconds = 0.35
		s.Tiers[server.TierDB].BusySeconds = 0.4
		s.ClassArrivals[i%tpcw.NumInteractions] = 9
		tied[i] = s
	}
	return map[string][]server.Snapshot{"idle": idle, "tied": tied}
}

// truthBits flattens a Truth to bit patterns, so that NaN and signed
// zeros compare exactly.
func truthBits(tr Truth) []uint64 {
	out := []uint64{
		math.Float64bits(tr.Time), math.Float64bits(tr.Throughput),
		math.Float64bits(tr.ArrivalRate), math.Float64bits(tr.MeanRT),
		uint64(tr.ActiveEBs), uint64(tr.Bottleneck), uint64(tr.Overload),
	}
	for _, u := range tr.Util {
		out = append(out, math.Float64bits(u))
	}
	for _, c := range tr.Classes {
		out = append(out, math.Float64bits(c))
	}
	return out
}

// checkReference feeds one stream to a Window and to both frozen
// references and returns the Window's truths, failing on any field that
// is not bit-equal. The bottleneck is held to the tracker, which compared
// foreground busy sums; the generator compared the sums divided by the
// window, so where that division rounds two different sums to one
// utilization the generator picked the first tier, and only there may it
// differ.
func checkReference(t *testing.T, name string, snaps []server.Snapshot, window int) []Truth {
	t.Helper()
	w, err := NewWindow(window)
	if err != nil {
		t.Fatal(err)
	}
	var got []Truth
	for _, s := range snaps {
		if tr, ok := w.Add(s); ok {
			got = append(got, tr)
		}
	}
	gen := refGenerate(snaps, window)
	tk := &refTracker{window: window}
	for _, s := range snaps {
		tk.observe(s)
	}
	if len(got) != len(gen) || len(got) != len(tk.ready) || len(got) != len(snaps)/window {
		t.Fatalf("%s/%d: %d windows, references %d and %d, from %d seconds",
			name, window, len(got), len(gen), len(tk.ready), len(snaps))
	}
	for i, g := range gen {
		r := tk.ready[i]
		want := Truth{
			Time: g.Time, Throughput: g.Throughput, ArrivalRate: g.ArrivalRate,
			MeanRT: g.MeanRT, ActiveEBs: g.EBs, Util: g.Util,
			Bottleneck: r.Bottleneck, Classes: g.Classes, Overload: g.Overload,
		}
		if !slices.Equal(truthBits(got[i]), truthBits(want)) {
			t.Fatalf("%s/%d window %d:\n got %+v\nwant %+v", name, window, i, got[i], want)
		}
		tracked := want
		tracked.Overload, tracked.Classes = 0, r.ClassCounts
		if r.Overload {
			tracked.Overload = 1
		}
		if !slices.Equal(truthBits(got[i]), truthBits(tracked)) {
			t.Fatalf("%s/%d window %d: tracker reference %+v, got %+v", name, window, i, r, got[i])
		}
		if g.Bottleneck != r.Bottleneck && g.FgUtil[g.Bottleneck] != g.FgUtil[r.Bottleneck] {
			t.Fatalf("%s/%d window %d: generator bottleneck %v over utilizations %v, got %v",
				name, window, i, g.Bottleneck, g.FgUtil, got[i].Bottleneck)
		}
	}
	return got
}

// TestWindowMatchesReference holds the accumulator to both frozen
// derivations of a window's ground truth, bit for bit, on testbed streams
// and hand-built edge cases, at the paper's 30-second window and at 1 and
// 7 seconds.
func TestWindowMatchesReference(t *testing.T) {
	streams := referenceStreams(t)
	for name, snaps := range handStreams() {
		streams[name] = snaps
	}
	var labels [2]int
	var bottlenecks [server.NumTiers]int
	for name, snaps := range streams {
		for _, window := range []int{1, 7, 30} {
			for _, tr := range checkReference(t, name, snaps, window) {
				labels[tr.Overload]++
				bottlenecks[tr.Bottleneck]++
			}
		}
	}
	// The streams must reach both labels and both bottleneck tiers, or
	// the comparison proves little.
	if labels[0] == 0 || labels[1] == 0 || bottlenecks[server.TierApp] == 0 || bottlenecks[server.TierDB] == 0 {
		t.Errorf("streams reach labels %v and bottlenecks %v; want every one", labels, bottlenecks)
	}
}

// decodeSnaps turns fuzz bytes into snapshots, 55 bytes each: time, mean
// response time and the two tiers' busy and foreground busy seconds as raw
// float64 bits, then arrivals, completions and active browsers as uint16,
// and the interaction class the arrivals go to.
func decodeSnaps(data []byte) []server.Snapshot {
	const rec = 6*8 + 3*2 + 1
	var out []server.Snapshot
	for ; len(data) >= rec; data = data[rec:] {
		f := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:])) }
		n := func(i int) int { return int(binary.LittleEndian.Uint16(data[48+2*i:])) }
		s := server.Snapshot{Time: f(0), MeanRT: f(1), Arrivals: n(0), Completions: n(1), ActiveEBs: n(2)}
		for tier := range s.Tiers {
			s.Tiers[tier].BusySeconds = f(2 + tier)
			s.Tiers[tier].FgBusySeconds = f(4 + tier)
		}
		s.ClassArrivals[int(data[54])%tpcw.NumInteractions] = s.Arrivals
		out = append(out, s)
	}
	return out
}

// FuzzWindowMatchesReference runs the reference comparison on fuzzed
// snapshot fields: NaN, infinities, denormals and huge counts included.
func FuzzWindowMatchesReference(f *testing.F) {
	var seed []byte
	for _, v := range []float64{1, 0.4, 0.5, 0.6, 0.3, 0.3, 2, math.NaN(), math.Inf(1), 5e-324, 4e-324, 1e308} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	seed = append(seed, 0, 0, 9, 0, 40, 0, 3, 30, 0, 7, 0, 0, 1, 5)
	f.Add(uint8(0), seed)
	f.Add(uint8(1), seed)
	f.Add(uint8(7), []byte{})
	f.Fuzz(func(t *testing.T, w uint8, data []byte) {
		checkReference(t, "fuzz", decodeSnaps(data), int(w%8)+1)
	})
}

// TestWindowHealth checks a steady site's window health against the
// offered load: 60 browsers at a ≈7 s think time complete ≈8.5 requests a
// second, fast.
func TestWindowHealth(t *testing.T) {
	tb, err := server.NewTestbed(server.DefaultConfig(), tpcw.Steady(tpcw.Shopping(), 60, 400))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	tb.RunInterval(60)
	w, err := NewWindow(30)
	if err != nil {
		t.Fatal(err)
	}
	var truths []Truth
	for i := 0; i < 90; i++ {
		if tr, ok := w.Add(tb.RunInterval(1)); ok {
			truths = append(truths, tr)
		}
	}
	if len(truths) != 3 {
		t.Fatalf("90 snapshots with window 30 produced %d windows, want 3", len(truths))
	}
	for i, tr := range truths {
		if tr.Throughput < 5 || tr.Throughput > 12 {
			t.Errorf("window throughput = %v, want ≈8.5", tr.Throughput)
		}
		if tr.MeanRT <= 0 || tr.MeanRT > 0.5 {
			t.Errorf("window MeanRT = %v, want small positive", tr.MeanRT)
		}
		if tr.ActiveEBs != 60 {
			t.Errorf("ActiveEBs = %d, want 60", tr.ActiveEBs)
		}
		if tr.Overload != 0 {
			t.Errorf("healthy window %d labeled overloaded", i)
		}
		if want := float64(60 + 30*(i+1)); tr.Time != want {
			t.Errorf("window %d ends at %v, want %v", i, tr.Time, want)
		}
	}
}

func TestNewWindowRejectsBadSpan(t *testing.T) {
	for _, seconds := range []int{0, -5} {
		if _, err := NewWindow(seconds); err == nil {
			t.Errorf("window %d not rejected", seconds)
		}
	}
}
