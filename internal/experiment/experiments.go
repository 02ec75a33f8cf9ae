package experiment

import (
	"context"
	"fmt"
	"io"
	"strings"
)

// Experiment is one named entry of the evaluation: a run over a Lab whose
// table renders as the text capbench prints for that name.
type Experiment struct {
	Name string
	// HostTimed marks an entry whose numbers are wall-clock readings of
	// the host it runs on. Every other entry's text is a pure function of
	// the Lab's scale and seed.
	HostTimed bool
	Run       func(*Lab) (*Table, error)
}

// Experiments returns the evaluation in the order capbench runs it.
func Experiments() []Experiment {
	return []Experiment{
		// Table I(a) and I(b): individual synopses on the browsing and
		// ordering test inputs.
		{Name: "table1a", Run: func(l *Lab) (*Table, error) { return l.RunTable1(TestBrowsing) }},
		{Name: "table1b", Run: func(l *Lab) (*Table, error) { return l.RunTable1(TestOrdering) }},
		// Figure 3: the PI series against throughput.
		{Name: "fig3", Run: func(l *Lab) (*Table, error) {
			r, err := l.RunFig3()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		// Figures 4(a) and 4(b): coordinated overload and bottleneck.
		{Name: "fig4", Run: func(l *Lab) (*Table, error) { return l.RunFig4() }},
		// §V.B: learner build and decision cost.
		{Name: "timing", HostTimed: true, Run: func(l *Lab) (*Table, error) { return l.RunTiming() }},
		// §V.D: collection overhead.
		{Name: "overhead", Run: func(l *Lab) (*Table, error) { return l.RunOverhead() }},
		// §V.C: history length and tie-break scheme.
		{Name: "ablation", Run: func(l *Lab) (*Table, error) { return l.RunAblation() }},
		// Single-PI, response-time and utilization detectors vs the monitor.
		{Name: "baselines", Run: func(l *Lab) (*Table, error) { return l.RunBaselines() }},
		// OS vs HPC vs combined OS+HPC monitors.
		{Name: "levels", Run: func(l *Lab) (*Table, error) { return l.RunLevelComparison() }},
	}
}

// Select resolves spec, a comma-separated list of experiment names ("all"
// for the whole table), to its entries in table order, each once. An
// unknown name is an error.
func Select(spec string) ([]Experiment, error) {
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
	return exps, nil
}

// Render runs the experiments spec names (see Select) and writes each
// table's text and a newline to w: capbench's stdout. It returns the
// tables in the same order. A run of the whole table first prewarms
// every shared trace with full fan-out, so the experiments run over warm
// caches.
func (l *Lab) Render(w io.Writer, spec string) ([]*Table, error) {
	exps, err := Select(spec)
	if err != nil {
		return nil, err
	}
	if len(exps) == len(Experiments()) {
		if err := l.Prewarm(context.Background()); err != nil {
			return nil, err
		}
	}
	var out []*Table
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
