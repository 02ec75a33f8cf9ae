// Package synopsis implements the paper's performance synopsis (§II.B): a
// model SYN({A1..An}, C) built for one (workload, tier, metric level)
// combination, pairing the attributes chosen by information-gain selection
// with a trained classifier that maps a low-level metric snapshot to the
// binary high-level system state.
package synopsis

import (
	"encoding/json"
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

// Config tunes synopsis construction.
type Config struct {
	// Selection tunes attribute selection; the zero value uses the
	// paper's defaults (information-gain ranking, 10-fold CV wrapper).
	Selection featsel.Config
	// SkipSelection trains on all attributes (used by ablations and the
	// learner-timing experiment).
	SkipSelection bool
}

// DefaultConfig returns the paper's synopsis settings: full attribute
// selection at featsel's defaults.
func DefaultConfig() Config {
	return Config{Selection: featsel.DefaultConfig()}
}

// Validate applies defaults first, then returns one error per violated
// constraint — all delegated to the selection config, which is the only
// part with constraints to violate.
func (c Config) Validate() []error {
	if c.SkipSelection {
		return nil
	}
	return c.Selection.Validate()
}

// Build selects attributes and trains a synopsis on the labeled dataset,
// whose columns must correspond to the collector vector for (tier, level).
func Build(workload string, tier server.TierID, level metrics.Level,
	learner ml.Learner, d *ml.Dataset, cfg Config) (*Synopsis, error) {

	s := &Synopsis{
		Workload: workload,
		Tier:     tier,
		Level:    level,
		Learner:  learner.Name,
	}
	var train *ml.Dataset
	if cfg.SkipSelection {
		s.Attrs = make([]int, d.NumAttrs())
		for i := range s.Attrs {
			s.Attrs[i] = i
		}
		train = d
		cv, err := ml.CrossValidate(learner, d, selFolds(cfg.Selection), cfg.Selection.Seed)
		if err != nil {
			return nil, fmt.Errorf("synopsis: cross-validate: %w", err)
		}
		s.CV = cv
	} else {
		res, err := featsel.Select(learner, d, cfg.Selection)
		if err != nil {
			return nil, fmt.Errorf("synopsis: attribute selection: %w", err)
		}
		s.Attrs = res.Attrs
		s.CV = res.CV
		train, err = d.Project(res.Attrs)
		if err != nil {
			return nil, err
		}
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

func selFolds(cfg featsel.Config) int {
	if cfg.Folds > 0 {
		return cfg.Folds
	}
	return 10
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

// Summary is the serializable description of a synopsis (model weights are
// rebuilt from traces rather than persisted).
type Summary struct {
	Workload  string   `json:"workload"`
	Tier      string   `json:"tier"`
	Level     string   `json:"level"`
	Learner   string   `json:"learner"`
	AttrNames []string `json:"attrs"`
	CV        float64  `json:"cv_balanced_accuracy"`
}

// MarshalJSON serializes the synopsis metadata.
func (s *Synopsis) MarshalJSON() ([]byte, error) {
	return json.Marshal(Summary{
		Workload:  s.Workload,
		Tier:      s.Tier.String(),
		Level:     s.Level.String(),
		Learner:   s.Learner,
		AttrNames: s.AttrNames,
		CV:        s.CV,
	})
}
