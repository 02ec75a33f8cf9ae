package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchFile is BENCHMARK.json as the repeatability tool and the smoke
// test read it.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBenchFile reads the declaration from the repository root; the
// benchmark runs from its own directory.
func loadBenchFile() (*benchFile, error) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &f, nil
}

// quartiles cuts a sample as Python's statistics.quantiles(v, n=4) does,
// the rule the acceptance check applies.
func quartiles(v []float64) (q1, q2, q3 float64) {
	x := sorted(v)
	n := len(x)
	if n < 2 {
		return x[0], x[0], x[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// compareSets runs every selected workload 2n times in fresh processes,
// each run on another seed, as two sets of n, and fails when a metric's
// second median is worse than its first by more than its bound.
func compareSets(selected []workload, n int, seconds float64) error {
	decl, err := loadBenchFile()
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	fmt.Printf("%-13s %-20s %27s %7s %27s %7s %7s %6s\n",
		"workload", "metric", "set A median [q1, q3]", "spread", "set B median [q1, q3]", "spread", "B vs A", "bound")
	for _, w := range selected {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = make(map[string][]float64)
			for i := 0; i < n; i++ {
				seed := s*n + i + 1
				cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.Itoa(seed),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				stdout, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s seed %d: %w\n%s", w.name, seed, err, stderr.String())
				}
				lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
				}
				if !res.Correct || res.Failed > 0 {
					failed = append(failed, fmt.Sprintf("%s seed %d: correct=%t failed=%d", w.name, seed, res.Correct, res.Failed))
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		for _, m := range decl.EndToEnd {
			a1, a2, a3 := quartiles(sets[0][m.Name])
			b1, b2, b3 := quartiles(sets[1][m.Name])
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			fmt.Printf("%-13s %-20s %9.4g [%7.4g, %7.4g] %6.1f%% %9.4g [%7.4g, %7.4g] %6.1f%% %+6.1f%% %5.0f%%\n",
				w.name, m.Name, a2, a1, a3, 100*spreadA, b2, b1, b3, 100*spreadB, 100*worse, 100*m.Bound)
			if worse > m.Bound {
				failed = append(failed, fmt.Sprintf("%s %s: second median worse by %.1f%%, bound %.0f%%", w.name, m.Name, 100*worse, 100*m.Bound))
			}
			if m.Name != "setup_s" && max(spreadA, spreadB) > m.Bound {
				failed = append(failed, fmt.Sprintf("%s %s: quartiles %.1f%% of the median apart, bound %.0f%%",
					w.name, m.Name, 100*max(spreadA, spreadB), 100*m.Bound))
			}
		}
	}
	sort.Strings(failed)
	for _, f := range failed {
		fmt.Println("FAIL", f)
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d repeatability checks failed", len(failed))
	}
	return nil
}
