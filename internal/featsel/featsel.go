// Package featsel implements the paper's attribute selection (§II.B.2):
// candidate attributes are ranked by information gain against the class
// variable, then added to the synopsis one at a time — keeping an addition
// only if it improves the synopsis's 10-fold cross-validated balanced
// accuracy — so that only the most relevant low-level metrics enter a
// synopsis.
package featsel

import (
	"errors"
	"sort"

	"hpcap/internal/ml"
	"hpcap/internal/stats"
)

// The paper's selection settings.
const (
	// maxAttrs caps the number of selected attributes (the paper keeps
	// synopses small).
	maxAttrs = 8
	// folds is the cross-validation fold count, as in the paper.
	folds = 10
	// minGain is the minimum CV balanced-accuracy improvement required to
	// keep a newly added attribute: additions must buy real accuracy, or
	// synopses overfit the training workload.
	minGain = 0.01
	// patience is how many consecutive non-improving candidates to try
	// before stopping.
	patience = 3
	// bins is the discretization granularity for information gain.
	bins = 10
)

// Ranked is one attribute with its information gain.
type Ranked struct {
	Attr int
	Gain float64
}

// RankByInformationGain returns all attributes ordered by decreasing
// information gain with the class variable, computed on equal-frequency
// discretized values. Every column is gathered and binned once, through
// reused scratch buffers.
func RankByInformationGain(d *ml.Dataset) ([]Ranked, error) {
	if d.Len() == 0 {
		return nil, ml.ErrNoData
	}
	out := make([]Ranked, 0, d.NumAttrs())
	col := make([]float64, d.Len())
	binned := make([]int, d.Len())
	for j := 0; j < d.NumAttrs(); j++ {
		col = d.ColumnTo(col, j)
		disc, err := stats.NewEqualFrequency(col, bins)
		if err != nil {
			return nil, err
		}
		binned = disc.BinTo(binned, col)
		ig, err := stats.InformationGain(binned, d.Y)
		if err != nil {
			return nil, err
		}
		out = append(out, Ranked{Attr: j, Gain: ig})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Gain > out[j].Gain })
	return out, nil
}

// Result is the outcome of a selection run.
type Result struct {
	Attrs []int   // selected attribute indices, in selection order
	CV    float64 // cross-validated balanced accuracy of the final subset
}

// Select runs the paper's iterative wrapper: walk candidates in information
// gain order, adding each attribute and keeping it only if the learner's
// cross-validated balanced accuracy improves. The seed drives fold
// shuffling.
//
// The stratified folds are computed once and reused for every candidate
// evaluation: they depend only on the labels and the seed, never on the
// projected attributes, so the scores are identical to stratifying per
// candidate — at a tenth of the partitioning work. Candidate projections
// are zero-copy column views of d.
func Select(l ml.Learner, d *ml.Dataset, seed int64) (Result, error) {
	if d.Len() < folds {
		return Result{}, errors.New("featsel: too few instances for cross validation")
	}
	ranked, err := RankByInformationGain(d)
	if err != nil {
		return Result{}, err
	}
	parts, err := ml.StratifiedFolds(d, folds, seed)
	if err != nil {
		return Result{}, err
	}
	evaluate := func(attrs []int) (float64, error) {
		proj, err := d.Project(attrs)
		if err != nil {
			return 0, err
		}
		return ml.CrossValidateFolds(l, proj, parts)
	}

	var selected []int
	// singleCV caches the scores of the one-attribute trials the ranking
	// loop evaluates, so the degenerate fallback below never re-runs a
	// cross validation whose result is already known.
	singleCV := make(map[int]float64)
	best := 0.5 // balanced accuracy of an empty (constant) synopsis
	misses := 0
	for _, cand := range ranked {
		if len(selected) >= maxAttrs {
			break
		}
		if misses >= patience && len(selected) > 0 {
			break
		}
		trial := append(append(make([]int, 0, len(selected)+1), selected...), cand.Attr)
		cv, err := evaluate(trial)
		if err != nil {
			return Result{}, err
		}
		if len(selected) == 0 {
			singleCV[cand.Attr] = cv
		}
		if cv >= best+minGain {
			selected = trial
			best = cv
			misses = 0
		} else {
			misses++
		}
	}
	// Degenerate data (nothing helps): fall back to the top-ranked
	// attribute so a synopsis always has an input. Its score was already
	// computed by the first loop iteration.
	if len(selected) == 0 && len(ranked) > 0 {
		selected = []int{ranked[0].Attr}
		cv, ok := singleCV[ranked[0].Attr]
		if !ok {
			if cv, err = evaluate(selected); err != nil {
				return Result{}, err
			}
		}
		best = cv
	}
	return Result{Attrs: selected, CV: best}, nil
}
