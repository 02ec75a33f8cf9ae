package experiment

import (
	"context"
	"fmt"
	"io"
	"strings"
)

// Experiment is one named entry of the evaluation: a run over a Lab whose
// result renders as the text capbench prints for that name.
type Experiment struct {
	Name string
	// HostTimed marks an entry whose numbers are wall-clock readings of
	// the host it runs on. Every other entry's text is a pure function of
	// the Lab's scale and seed.
	HostTimed bool
	Run       func(*Lab) (fmt.Stringer, error)
}

// Experiments returns the evaluation in the order capbench runs it.
func Experiments() []Experiment {
	return []Experiment{
		// Table I(a) and I(b): individual synopses on the browsing and
		// ordering test inputs.
		{Name: "table1a", Run: func(l *Lab) (fmt.Stringer, error) { return l.RunTable1(TestBrowsing) }},
		{Name: "table1b", Run: func(l *Lab) (fmt.Stringer, error) { return l.RunTable1(TestOrdering) }},
		// Figure 3: the PI series against throughput.
		{Name: "fig3", Run: func(l *Lab) (fmt.Stringer, error) { return l.RunFig3() }},
		// Figures 4(a) and 4(b): coordinated overload and bottleneck.
		{Name: "fig4", Run: func(l *Lab) (fmt.Stringer, error) { return l.RunFig4() }},
		// §V.B: learner build and decision cost.
		{Name: "timing", HostTimed: true, Run: func(l *Lab) (fmt.Stringer, error) { return l.RunTiming() }},
		// §V.D: collection overhead.
		{Name: "overhead", Run: func(l *Lab) (fmt.Stringer, error) { return l.RunOverhead() }},
		// §V.C: history length and tie-break scheme.
		{Name: "ablation", Run: func(l *Lab) (fmt.Stringer, error) { return l.RunAblation() }},
		// Single-PI, response-time and utilization detectors vs the monitor.
		{Name: "baselines", Run: func(l *Lab) (fmt.Stringer, error) { return l.RunBaselines() }},
		// OS vs HPC vs combined OS+HPC monitors.
		{Name: "levels", Run: func(l *Lab) (fmt.Stringer, error) { return l.RunLevelComparison() }},
	}
}

// Render runs the experiments spec names, a comma-separated list ("all"
// for the whole table), each once and in table order, and writes each
// result's text and a newline to w: capbench's stdout. It returns the
// results in the same order. A run of the whole table first prewarms
// every shared trace with full fan-out, so the experiments run over warm
// caches.
func (l *Lab) Render(w io.Writer, spec string) ([]fmt.Stringer, error) {
	table := Experiments()
	known := map[string]bool{"all": true}
	for _, e := range table {
		known[e.Name] = true
	}
	wanted := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if !known[name] {
			return nil, fmt.Errorf("unknown experiment %q", name)
		}
		wanted[name] = true
	}
	var exps []Experiment
	for _, e := range table {
		if wanted["all"] || wanted[e.Name] {
			exps = append(exps, e)
		}
	}
	if len(exps) == len(table) {
		if err := l.Prewarm(context.Background()); err != nil {
			return nil, err
		}
	}
	var out []fmt.Stringer
	for _, e := range exps {
		res, err := e.Run(l)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		if _, err := fmt.Fprintln(w, res); err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}
