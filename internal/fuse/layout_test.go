package fuse

import (
	"testing"

	"hpcap/internal/cpu"
	"hpcap/internal/osstat"
)

// TestLayoutFactorCounts: the three known layouts resolve by the
// collectors' dimensions and carry factors, the combined one the OS and
// HPC sets plus the cross-level coupling; any other dimension gets a
// factor-free filter-only layout. Every learned factor owns one slot.
func TestLayoutFactorCounts(t *testing.T) {
	nHPC, nOS := len(cpu.MetricNames), len(osstat.MetricNames)
	if l := layoutFor(nHPC); l.dim != nHPC || len(l.factors) == 0 {
		t.Errorf("HPC layout: dim=%d factors=%d", l.dim, len(l.factors))
	}
	if l := layoutFor(nOS); l.dim != nOS || len(l.factors) == 0 {
		t.Errorf("OS layout: dim=%d factors=%d", l.dim, len(l.factors))
	}
	comb := layoutFor(nOS + nHPC)
	if len(comb.factors) != len(layoutFor(nOS).factors)+len(layoutFor(nHPC).factors)+1 {
		t.Errorf("combined layout has %d factors, want OS+HPC+1 cross", len(comb.factors))
	}
	if l := layoutFor(7); len(l.factors) != 0 {
		t.Errorf("unknown dimension carries %d factors, want 0", len(l.factors))
	}
	for _, l := range []*layout{layoutHPC, layoutOS, layoutCombined} {
		for j, fi := range l.learned {
			if got := l.factors[fi].slot; got != j {
				t.Errorf("dim %d: learned factor %d has slot %d, want %d", l.dim, fi, got, j)
			}
		}
	}
}
