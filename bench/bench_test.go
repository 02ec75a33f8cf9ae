package main

import (
	"math"
	"regexp"
	"testing"
)

// TestSmoke runs all four workloads at the tiny scale, untraced and
// traced, and holds what they print to what BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	decl, err := loadBenchFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d: declared %q, built %q", i, decl.Workloads[i].Name, w.name)
		}
	}
	sameDefs(t, "end_to_end", decl.EndToEnd, endToEnd)
	sameDefs(t, "per_layer", decl.PerLayer, perLayer)

	o := opts{seed: 1, seconds: 0.5, tiny: true}
	e, err := newEnv(o.seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, _, err := runWorkload(w, o, traced, e)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%t: %d metrics printed, %d declared", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s: %s is declared and was not printed", w.name, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s: %s printed in %q, declared in %q", w.name, d.name, m.Unit, d.unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s = %v", w.name, d.name, m.Value)
				case !traced && m.Value <= 0:
					// An end-to-end metric is defined on every workload.
					t.Errorf("%s: end-to-end %s = %v", w.name, d.name, m.Value)
				}
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func sameDefs(t *testing.T, list string, declared []benchMetric, built []def) {
	t.Helper()
	if len(declared) != len(built) {
		t.Fatalf("%s: %d declared, %d built", list, len(declared), len(built))
	}
	seen := make(map[string]bool)
	for i, d := range built {
		m := declared[i]
		if m.Name != d.name || m.Unit != d.unit {
			t.Errorf("%s[%d]: declared %s (%s), built %s (%s)", list, i, m.Name, m.Unit, d.name, d.unit)
		}
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] {
			t.Errorf("%s[%d]: bad or repeated name %q or unit %q", list, i, d.name, d.unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s[%d]: %s is better %q", list, i, m.Name, m.Better)
		}
		seen[d.name] = true
	}
}
