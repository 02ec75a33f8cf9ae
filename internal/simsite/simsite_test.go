package simsite

import (
	"reflect"
	"testing"

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
