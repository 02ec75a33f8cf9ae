package experiment

import (
	"fmt"

	"hpcap/internal/metrics"
	"hpcap/internal/predictor"
)

// RunAblation reproduces the paper's §V.C sensitivity study: it sweeps
// history length h ∈ {1..5} and both tie-break schemes on the ordering
// and interleaved test workloads with HPC metrics. The schemes barely
// matter, short histories behave differently from the 3-bit default, and
// histories beyond a few bits yield only marginal movement. A row is a
// (scheme, workload), a column "h=1".."h=5", and a cell the overload
// balanced accuracy in percent.
func (l *Lab) RunAblation() (*Table, error) {
	schemes := []predictor.Scheme{predictor.Optimistic, predictor.Pessimistic}
	kinds := []TestKind{TestOrdering, TestInterleaved}
	const maxH = 5
	t := &Table{
		Title: "History-length and tie-break ablation (§V.C) — HPC metrics, overload BA %\n",
		Keys:  []Column{{Name: "scheme", HeadFmt: "%-12s"}, {Name: "workload", HeadFmt: " %-12s"}},
	}
	var cells []monitorCell
	for _, scheme := range schemes {
		for _, kind := range kinds {
			for h := 1; h <= maxH; h++ {
				cells = append(cells, monitorCell{metrics.LevelHPC, predictor.Config{HistoryBits: h, Delta: 5, Scheme: scheme}, kind})
			}
		}
	}
	for h := 1; h <= maxH; h++ {
		t.Cols = append(t.Cols, Column{Name: fmt.Sprintf("h=%d", h), HeadFmt: " %6s", ValFmt: " %6.1f"})
	}
	scores, err := l.scoreMonitors(cells)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(cells); i += maxH {
		vals := make([]float64, maxH)
		for h := range vals {
			vals[h] = scores[i+h].overload * 100
		}
		t.Add([]string{cells[i].cfg.Scheme.String(), cells[i].kind.String()}, vals...)
	}
	return t, nil
}
