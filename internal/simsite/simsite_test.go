package simsite

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"hpcap/internal/chaos"
	"hpcap/internal/chunk"
	"hpcap/internal/experiment"
	"hpcap/internal/metrics"
	"hpcap/internal/server"
	"hpcap/internal/tpcw"
)

// TestNewIsTheTwoTierDAGSite pins what distinguishes the two constructors:
// New is NewDAG over the two-tier topology, sample for sample, minus the
// actuator surface — and it still rejects a bad server config itself.
func TestNewIsTheTwoTierDAGSite(t *testing.T) {
	base := server.DefaultConfig()
	wb := experiment.Workload{Mix: tpcw.Browsing(), Knee: 120}
	wo := experiment.Workload{Mix: tpcw.Ordering(), Knee: 160}
	for index := 0; index < 2; index++ {
		plain, err := New("site", base, metrics.LevelCombined, index, wb, wo, 42, 200)
		if err != nil {
			t.Fatal(err)
		}
		dag, err := NewDAG("site", server.TwoTierTopology(base), metrics.LevelCombined, index, wb, wo, 42, 200)
		if err != nil {
			t.Fatal(err)
		}
		if plain.DAG != nil || dag.DAG == nil {
			t.Fatalf("DAG handles: New %v, NewDAG %v; want nil and non-nil", plain.DAG, dag.DAG)
		}
		for _, s := range []*Site{plain, dag} {
			if err := s.TB.Start(); err != nil {
				t.Fatal(err)
			}
		}
		for sec := 0; sec < 200; sec++ {
			ps, ds := plain.TB.RunInterval(1), dag.TB.RunInterval(1)
			for tier := server.TierID(0); tier < server.NumTiers; tier++ {
				if pv, dv := plain.Collect(tier, ps), dag.Collect(tier, ds); !reflect.DeepEqual(pv, dv) {
					t.Fatalf("site %d second %d tier %s: New and NewDAG sample vectors differ", index, sec, tier)
				}
			}
		}
	}

	base.DB.MaxWorkers = 0
	if _, err := New("site", base, metrics.LevelHPC, 0, wb, wo, 42, 200); err == nil {
		t.Error("New accepted a server config with no DB workers")
	}
}

// TestCombinedIsOSThenHPC: a combined-level site's vector is, bit for
// bit, an OS-level site's vector followed by an HPC-level site's, second
// by second and tier by tier, for the same seed — plain, and behind
// retrying collectors over chaos-flaky sources that write in place.
func TestCombinedIsOSThenHPC(t *testing.T) {
	wb := experiment.Workload{Mix: tpcw.Browsing(), Knee: 120}
	wo := experiment.Workload{Mix: tpcw.Ordering(), Knee: 160}
	outages, err := chaos.Parse("outage at=20 for=10")
	if err != nil {
		t.Fatal(err)
	}
	for _, flaky := range []bool{false, true} {
		var sites [3]*Site
		for i, level := range []metrics.Level{metrics.LevelOS, metrics.LevelHPC, metrics.LevelCombined} {
			s, err := New("site", server.DefaultConfig(), level, 1, wb, wo, 42, 60)
			if err != nil {
				t.Fatal(err)
			}
			if flaky {
				s.WrapCollectors(func(c metrics.Collector) metrics.Collector {
					return metrics.NewRetryCollector(chaos.NewFlakyCollector(c, outages), 1)
				})
			}
			if err := s.TB.Start(); err != nil {
				t.Fatal(err)
			}
			sites[i] = s
		}
		for sec := 0; sec < 60; sec++ {
			var snaps [3]server.Snapshot
			for i, s := range sites {
				snaps[i] = s.TB.RunInterval(1)
			}
			for tier := server.TierID(0); tier < server.NumTiers; tier++ {
				os, hpc := sites[0].Collect(tier, snaps[0]), sites[1].Collect(tier, snaps[1])
				want := append(append([]float64{}, os...), hpc...)
				got := sites[2].Collect(tier, snaps[2])
				if len(got) != len(want) || len(got) != len(experiment.MetricNames(metrics.LevelCombined)) {
					t.Fatalf("flaky %v second %d tier %s: combined vector has %d values, want %d", flaky, sec, tier, len(got), len(want))
				}
				for j := range want {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("flaky %v second %d tier %s: combined[%d] = %v, want %v", flaky, sec, tier, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// failEvery3rd fails every read whose snapshot second is a multiple of 3.
type failEvery3rd struct{ metrics.Collector }

func (f failEvery3rd) TryCollectTo(dst []float64, s server.Snapshot, dt float64) ([]float64, error) {
	if int(s.Time)%3 == 0 {
		return nil, errors.New("scripted failure")
	}
	return f.CollectTo(dst, s, dt), nil
}

// TestCollectVectorsAreFresh: a vector Collect returns is not changed by
// any later Collect, at every level and behind a retrying collector that
// falls back on every third read, and behind one over a chaos-flaky
// source that fails every read in 10-second outages. The vectors are carved
// from shared chunks, so they are kept over several chunk turnovers and
// checked after 100 more seconds of collects; at the combined level each
// collector writes its own span of the site's vector, not its neighbour's.
func TestCollectVectorsAreFresh(t *testing.T) {
	const kept, more = 4 * chunk.Carves, 100
	wb := experiment.Workload{Mix: tpcw.Browsing(), Knee: 120}
	wo := experiment.Workload{Mix: tpcw.Ordering(), Knee: 160}
	outages, err := chaos.Parse("outage at=20 for=10; outage at=70 for=10; outage at=150 for=10")
	if err != nil {
		t.Fatal(err)
	}
	wraps := map[string]func(metrics.Collector) metrics.Collector{
		"plain": nil,
		"retry": func(c metrics.Collector) metrics.Collector {
			return metrics.NewRetryCollector(failEvery3rd{c}, 1)
		},
		"flaky": func(c metrics.Collector) metrics.Collector {
			return metrics.NewRetryCollector(chaos.NewFlakyCollector(c, outages), 1)
		},
	}
	for _, level := range []metrics.Level{metrics.LevelOS, metrics.LevelHPC, metrics.LevelCombined} {
		for retry, wrap := range wraps {
			s, err := New("site", server.DefaultConfig(), level, 0, wb, wo, 42, kept+more)
			if err != nil {
				t.Fatal(err)
			}
			if wrap != nil {
				s.WrapCollectors(wrap)
			}
			if err := s.TB.Start(); err != nil {
				t.Fatal(err)
			}
			var bits [][]uint64
			var vecs [][]float64
			for sec := 0; sec < kept+more; sec++ {
				snap := s.TB.RunInterval(1)
				for tier := server.TierID(0); tier < server.NumTiers; tier++ {
					v := s.Collect(tier, snap)
					if sec >= kept {
						continue
					}
					b := make([]uint64, len(v))
					for i, x := range v {
						b[i] = math.Float64bits(x)
					}
					vecs, bits = append(vecs, v), append(bits, b)
				}
			}
			for k, v := range vecs {
				for i, x := range v {
					if math.Float64bits(x) != bits[k][i] {
						t.Fatalf("level %v, %s: vector %d changed after later Collects", level, retry, k)
					}
				}
			}
		}
	}
}
