// Package synopsis implements the paper's performance synopsis (§II.B): a
// model SYN({A1..An}, C) built for one (workload, tier, metric level)
// combination, pairing the attributes chosen by information-gain selection
// with a trained classifier that maps a low-level metric snapshot to the
// binary high-level system state.
package synopsis

import (
	"fmt"

	"hpcap/internal/featsel"
	"hpcap/internal/metrics"
	"hpcap/internal/ml"
	"hpcap/internal/server"
)

// Synopsis correlates a tier's low-level metrics with the high-level
// overload state for one workload pattern.
type Synopsis struct {
	Workload string
	Tier     server.TierID
	Level    metrics.Level
	Learner  string

	// Attrs indexes the selected attributes in the collector's full
	// metric vector; AttrNames are their names.
	Attrs     []int
	AttrNames []string
	// CV is the 10-fold cross-validated balanced accuracy on the
	// training set.
	CV float64

	classifier ml.Classifier
}

// Build selects attributes and trains a synopsis on the labeled dataset,
// whose columns must correspond to the collector vector for (tier, level).
// The seed shuffles the selection's cross-validation folds.
func Build(workload string, tier server.TierID, level metrics.Level,
	learner ml.Learner, d *ml.Dataset, seed int64) (*Synopsis, error) {

	s := &Synopsis{
		Workload: workload,
		Tier:     tier,
		Level:    level,
		Learner:  learner.Name,
	}
	res, err := featsel.Select(learner, d, seed)
	if err != nil {
		return nil, fmt.Errorf("synopsis: attribute selection: %w", err)
	}
	s.Attrs = res.Attrs
	s.CV = res.CV
	train, err := d.Project(res.Attrs)
	if err != nil {
		return nil, err
	}
	s.AttrNames = make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		s.AttrNames[i] = d.AttrNames[a]
	}

	clf := learner.New()
	if err := clf.Fit(train); err != nil {
		return nil, fmt.Errorf("synopsis: fit %s on %s/%s/%s: %w",
			learner.Name, workload, tier, level, err)
	}
	s.classifier = clf
	return s, nil
}

// Predict maps a full metric vector (same layout as the training collector)
// to the predicted system state, projecting to the synopsis's selected
// attributes through scr, which also holds every temporary the classifier
// needs. A trained synopsis is immutable and shared across prediction
// streams; concurrent callers must hold distinct scratches.
func (s *Synopsis) Predict(values []float64, scr *ml.Scratch) int {
	x := scr.EnsureX(len(s.Attrs))
	for i, a := range s.Attrs {
		if a < len(values) {
			x[i] = values[a]
		} else {
			x[i] = 0
		}
	}
	return s.classifier.Predict(x, scr)
}

// Key identifies the synopsis in reports, e.g. "browsing/db/HPC/TAN".
func (s *Synopsis) Key() string {
	return fmt.Sprintf("%s/%s/%s/%s", s.Workload, s.Tier, s.Level, s.Learner)
}
