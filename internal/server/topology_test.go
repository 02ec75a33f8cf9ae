package server

import (
	"math"
	"strings"
	"testing"
)

func TestDefaultTopologyValid(t *testing.T) {
	if errs := DefaultTopologyConfig().Validate(); len(errs) > 0 {
		t.Fatalf("DefaultTopologyConfig invalid: %v", errs)
	}
	if errs := TwoTierTopology(DefaultConfig()).Validate(); len(errs) > 0 {
		t.Fatalf("TwoTierTopology invalid: %v", errs)
	}
}

func TestPoolKindString(t *testing.T) {
	if PoolFront.String() != "front" || PoolCache.String() != "cache" || PoolStore.String() != "store" {
		t.Error("pool kind names wrong")
	}
	if !strings.Contains(PoolKind(42).String(), "42") {
		t.Error("unknown pool kind name wrong")
	}
}

func TestTopologyValidateErrors(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*TopologyConfig)
		// want is a substring each case must produce at least once.
		want string
	}{
		{"no pools", func(tc *TopologyConfig) { tc.Pools = nil }, "no pools"},
		{"empty name", func(tc *TopologyConfig) { tc.Pools[1].Name = "" }, "has no name"},
		{"duplicate name", func(tc *TopologyConfig) { tc.Pools[1].Name = "app" }, "duplicate pool name"},
		{"unknown kind", func(tc *TopologyConfig) { tc.Pools[0].Kind = 0 }, "unknown kind"},
		{"slot out of range", func(tc *TopologyConfig) { tc.Pools[2].Slot = NumTiers }, "out of range"},
		{"zero replicas", func(tc *TopologyConfig) { tc.Pools[0].Replicas = 0 }, "replicas, need >= 1"},
		{"negative bounds", func(tc *TopologyConfig) { tc.Pools[0].MinReplicas = -1 }, "negative replica bounds"},
		{"inverted bounds", func(tc *TopologyConfig) { tc.Pools[0].MinReplicas = 7 }, "bounds inverted"},
		{"start outside bounds", func(tc *TopologyConfig) { tc.Pools[0].Replicas = 9 }, "outside bounds"},
		{"NaN demand frac", func(tc *TopologyConfig) { tc.Pools[0].DemandFrac = math.NaN() }, "bad demand fraction"},
		{"negative work frac", func(tc *TopologyConfig) { tc.Pools[1].WorkFrac = -1 }, "bad work fraction"},
		{"hit ratio out of range", func(tc *TopologyConfig) { tc.Pools[1].HitRatio = 1.5 }, "outside [0,1]"},
		{"hit ratio on store", func(tc *TopologyConfig) { tc.Pools[2].HitRatio = 0.5 }, "is not a cache"},
		{"bad tier", func(tc *TopologyConfig) { tc.Pools[0].Tier.MaxWorkers = 0 }, "MaxWorkers must be positive"},
		{"unknown downstream", func(tc *TopologyConfig) { tc.Pools[0].Downstream = []string{"ghost"} }, "does not exist"},
		{"duplicate downstream", func(tc *TopologyConfig) {
			tc.Pools[0].Downstream = []string{"cache", "cache"}
		}, "twice"},
		{"no entry", func(tc *TopologyConfig) { tc.Entry = "" }, "no entry pool"},
		{"unknown entry", func(tc *TopologyConfig) { tc.Entry = "ghost" }, "does not exist"},
		{"non-front entry", func(tc *TopologyConfig) { tc.Entry = "db" }, "must be a front pool"},
		{"negative hop", func(tc *TopologyConfig) { tc.NetworkHop = -1 }, "NetworkHop"},
		{"cycle", func(tc *TopologyConfig) { tc.Pools[2].Downstream = []string{"app"} }, "cycle through edge"},
		{"self cycle", func(tc *TopologyConfig) { tc.Pools[2].Downstream = []string{"db"} }, "cycle through edge"},
		{"orphan", func(tc *TopologyConfig) { tc.Pools[1].Downstream = nil }, "orphaned"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tc := DefaultTopologyConfig()
			tt.mutate(&tc)
			errs := tc.Validate()
			if len(errs) == 0 {
				t.Fatalf("%s not rejected", tt.name)
			}
			for _, err := range errs {
				if strings.Contains(err.Error(), tt.want) {
					return
				}
			}
			t.Errorf("no error mentions %q: %v", tt.want, errs)
		})
	}
}

// TestTopologyValidateOnePerViolation pins the one-error-per-violation
// contract: stacking independent defects yields independent errors.
func TestTopologyValidateOnePerViolation(t *testing.T) {
	tc := DefaultTopologyConfig()
	tc.Pools[0].Replicas = 0                 // zero replicas (now also outside [1,6])
	tc.Pools[1].HitRatio = 2                 // bad hit ratio
	tc.Pools[2].Downstream = []string{"app"} // cycle app->cache->db->app
	errs := tc.Validate()
	counts := map[string]int{}
	for _, e := range errs {
		switch {
		case strings.Contains(e.Error(), "replicas, need >= 1"):
			counts["replicas"]++
		case strings.Contains(e.Error(), "outside [0,1]"):
			counts["hit"]++
		case strings.Contains(e.Error(), "cycle through edge"):
			counts["cycle"]++
		}
	}
	for _, k := range []string{"replicas", "hit", "cycle"} {
		if counts[k] != 1 {
			t.Errorf("violation %q reported %d times, want 1 (errs: %v)", k, counts[k], errs)
		}
	}
}

func TestVisitFractions(t *testing.T) {
	tc := DefaultTopologyConfig() // app -> cache(hit 0.7) -> db
	vf := tc.VisitFractions()
	if got := vf["app"]; got != 1 {
		t.Errorf("app visits = %v, want 1", got)
	}
	if got := vf["cache"]; got != 1 {
		t.Errorf("cache visits = %v, want 1", got)
	}
	if got := vf["db"]; math.Abs(got-0.3) > 1e-12 {
		t.Errorf("db visits = %v, want 0.3", got)
	}
}

func TestBottleneckPoolRule(t *testing.T) {
	if BottleneckPool(nil) != -1 {
		t.Error("empty loads should give -1")
	}
	loads := []PoolLoad{
		{Pool: "a", Replicas: 2, Offered: 1.0, Capacity: 2.0}, // 0.5
		{Pool: "b", Replicas: 1, Offered: 0.9, Capacity: 1.0}, // 0.9
		{Pool: "c", Replicas: 4, Offered: 2.0, Capacity: 4.0}, // 0.5
	}
	if got := BottleneckPool(loads); got != 1 {
		t.Errorf("bottleneck = %d, want 1", got)
	}
	// A drained pool under load dominates everything.
	loads[2].Capacity, loads[2].Offered = 0, 0.1
	if got := BottleneckPool(loads); got != 2 {
		t.Errorf("bottleneck with drained pool = %d, want 2", got)
	}
	// Ties break to the earliest pool.
	tie := []PoolLoad{
		{Pool: "x", Offered: 1, Capacity: 2},
		{Pool: "y", Offered: 2, Capacity: 4},
	}
	if got := BottleneckPool(tie); got != 0 {
		t.Errorf("tie bottleneck = %d, want 0", got)
	}
}

// FuzzTopologyConfig decodes arbitrary bytes into a topology and checks
// that Validate never panics, that a clean bill of health really is
// constructible, and that the cardinal violations — cycles, zero
// replicas, orphan pools — are each reported exactly once per instance.
func FuzzTopologyConfig(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 1, 0, 0})
	f.Add([]byte{3, 1, 2, 8, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3})
	f.Add([]byte{6, 255, 254, 253, 252, 251, 250, 249, 248, 247, 246, 245})
	f.Fuzz(func(t *testing.T, data []byte) {
		tc := decodeTopology(data)
		var errs []error
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Validate panicked: %v (topology %+v)", r, tc)
				}
			}()
			errs = tc.Validate()
		}()
		for i, p := range tc.Pools {
			if p.Replicas <= 0 && p.Name != "" && !dupName(tc.Pools, i) {
				if n := countErrs(errs, "pool %q has", p.Name, "replicas, need >= 1"); n != 1 {
					t.Fatalf("zero-replica pool %q reported %d times, want 1: %v", p.Name, n, errs)
				}
			}
		}
		if len(errs) > 0 {
			return
		}
		// A validated topology must build and run without panicking; its
		// visit fractions must be finite (acyclicity is proven above).
		for name, v := range tc.VisitFractions() {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("visit fraction %v for %q", v, name)
			}
		}
	})
}

// dupName reports whether pools[i].Name already occurs earlier — those
// pools are skipped by per-pool validation.
func dupName(pools []PoolConfig, i int) bool {
	for j := 0; j < i; j++ {
		if pools[j].Name == pools[i].Name {
			return true
		}
	}
	return false
}

// countErrs counts errors containing both format-rendered fragments.
func countErrs(errs []error, _ string, name, frag string) int {
	n := 0
	for _, e := range errs {
		s := e.Error()
		if strings.Contains(s, `"`+name+`"`) && strings.Contains(s, frag) {
			n++
		}
	}
	return n
}

// decodeTopology deterministically maps fuzz bytes to a TopologyConfig,
// deliberately able to express every violation class: cycles (downstream
// indices may point backward), zero replicas, orphans, bad fractions.
func decodeTopology(data []byte) TopologyConfig {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	base := DefaultConfig()
	n := int(next()%7) + 1
	names := []string{"lb", "app", "cache", "db", "idx", "blob", "log"}
	tc := TopologyConfig{NetworkHop: base.NetworkHop, Seed: 1}
	for i := 0; i < n; i++ {
		b := next()
		p := PoolConfig{
			Name:       names[i],
			Kind:       PoolKind(b % 5), // includes invalid kinds 0 and 4
			Slot:       TierID(int(b>>3) % 3),
			Replicas:   int(b>>5) % 4, // includes zero
			Tier:       base.App,
			DemandFrac: float64(next()%8) / 4,
			WorkFrac:   1,
		}
		if p.Kind == PoolCache {
			p.HitRatio = float64(next()%12) / 8 // may exceed 1
		}
		e := next()
		for k := 0; k < int(e%3); k++ {
			p.Downstream = append(p.Downstream, names[int(next())%n])
		}
		if b&0x80 != 0 {
			p.MinReplicas = int(next() % 3)
			p.MaxReplicas = int(next() % 5)
		}
		tc.Pools = append(tc.Pools, p)
	}
	if next()%8 != 0 {
		tc.Entry = names[int(next())%n]
	}
	if next()%16 == 0 {
		tc.NetworkHop = math.NaN()
	}
	return tc
}
