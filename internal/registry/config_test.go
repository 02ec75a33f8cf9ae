package registry_test

import (
	"errors"
	"testing"

	"hpcap/internal/core"
	"hpcap/internal/ml/bayes"
	"hpcap/internal/registry"
	"hpcap/internal/serve"
)

// stubPipeline satisfies registry.Pipeline without a serving stack; the
// validation tests never call it.
type stubPipeline struct{}

func (stubPipeline) SwapMonitor(site string, m *core.Monitor, version int64) (serve.SwapEvent, error) {
	return serve.SwapEvent{}, nil
}
func (stubPipeline) NoteDrift(site string, n int) {}

func TestRegistryDefaultConfigValid(t *testing.T) {
	cfg := registry.DefaultConfig()
	cfg.Pipeline = stubPipeline{}
	cfg.Train = core.Config{Learner: bayes.TANLearner()}
	if errs := cfg.Validate(); len(errs) > 0 {
		t.Fatalf("DefaultConfig + pipeline + learner invalid: %v", errs)
	}
	// Zero windows resolve to defaults rather than failing.
	cfg.HistoryWindows, cfg.ShadowWindows, cfg.MinTrainWindows, cfg.CooldownWindows = 0, 0, 0, 0
	if errs := cfg.Validate(); len(errs) > 0 {
		t.Fatalf("zero windows invalid after defaults: %v", errs)
	}
}

func TestRegistryConfigValidateErrors(t *testing.T) {
	base := func() registry.Config {
		cfg := registry.DefaultConfig()
		cfg.Pipeline = stubPipeline{}
		cfg.Train = core.Config{Learner: bayes.TANLearner()}
		return cfg
	}
	tests := []struct {
		name   string
		mutate func(*registry.Config)
	}{
		{"nil pipeline", func(c *registry.Config) { c.Pipeline = nil }},
		{"missing learner", func(c *registry.Config) { c.Train.Learner.New = nil }},
		{"negative history", func(c *registry.Config) { c.HistoryWindows = -1 }},
		{"negative shadow", func(c *registry.Config) { c.ShadowWindows = -1 }},
		{"shadow swallows history", func(c *registry.Config) { c.HistoryWindows = 8; c.ShadowWindows = 8 }},
		{"negative min train", func(c *registry.Config) { c.MinTrainWindows = -1 }},
		{"retrain unreachable", func(c *registry.Config) { c.MinTrainWindows = 200 }},
		{"negative cooldown", func(c *registry.Config) { c.CooldownWindows = -1 }},
		{"bad drift config", func(c *registry.Config) { c.Drift.MixWindow = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base()
			tt.mutate(&cfg)
			errs := cfg.Validate()
			if len(errs) == 0 {
				t.Fatalf("%s not rejected", tt.name)
			}
			for _, err := range errs {
				if !errors.Is(err, core.ErrBadConfig) {
					t.Errorf("error %v does not wrap ErrBadConfig", err)
				}
			}
		})
	}
}
