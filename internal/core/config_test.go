package core_test

import (
	"errors"
	"testing"

	"hpcap/internal/core"
	"hpcap/internal/ml/bayes"
	"hpcap/internal/predictor"
)

func TestDefaultConfigValid(t *testing.T) {
	cfg := core.Config{Learner: bayes.TANLearner()}
	if errs := cfg.Validate(); len(errs) > 0 {
		t.Fatalf("zero Config + learner invalid: %v", errs)
	}
}

func TestConfigValidateErrors(t *testing.T) {
	base := func() core.Config {
		return core.Config{Learner: bayes.TANLearner()}
	}
	tests := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"missing learner", func(c *core.Config) { c.Learner.New = nil }},
		{"bad coordinator", func(c *core.Config) { c.Coordinator = predictor.Config{HistoryBits: 13} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base()
			tt.mutate(&cfg)
			errs := cfg.Validate()
			if len(errs) == 0 {
				t.Fatalf("%s not rejected", tt.name)
			}
			// Nested violations are re-wrapped, so one errors.Is covers the
			// whole training configuration.
			for _, err := range errs {
				if !errors.Is(err, core.ErrBadConfig) {
					t.Errorf("error %v does not wrap ErrBadConfig", err)
				}
			}
		})
	}
}
