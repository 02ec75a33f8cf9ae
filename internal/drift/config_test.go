package drift

import (
	"errors"
	"testing"

	"hpcap/internal/core"
)

func TestDefaultConfigValid(t *testing.T) {
	if errs := DefaultConfig().Validate(); len(errs) > 0 {
		t.Fatalf("DefaultConfig invalid: %v", errs)
	}
	if errs := (Config{}).Validate(); len(errs) > 0 {
		t.Fatalf("zero Config invalid after defaults: %v", errs)
	}
	// Negative thresholds are documented disables, not errors.
	off := Config{PHLambda: -1, MixThreshold: -1}
	if errs := off.Validate(); len(errs) > 0 {
		t.Fatalf("disabled detectors rejected: %v", errs)
	}
}

func TestConfigValidateErrors(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative PH delta", func(c *Config) { c.PHDelta = -0.1 }},
		{"negative min windows", func(c *Config) { c.MinWindows = -1 }},
		{"negative mix reference", func(c *Config) { c.MixRefWindows = -1 }},
		{"negative mix window", func(c *Config) { c.MixWindow = -1 }},
		{"negative mix patience", func(c *Config) { c.MixPatience = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
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
