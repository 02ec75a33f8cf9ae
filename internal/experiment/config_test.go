package experiment

import (
	"errors"
	"testing"

	"hpcap/internal/core"
	"hpcap/internal/metrics"
	"hpcap/internal/server"
	"hpcap/internal/tpcw"
)

// baseTraceConfig is a valid trace configuration at the paper's settings.
func baseTraceConfig() TraceConfig {
	return TraceConfig{
		Server:   server.DefaultConfig(),
		Schedule: tpcw.Steady(tpcw.Browsing(), 20, 60),
		Window:   metrics.DefaultWindow,
	}
}

func TestTraceConfigZeroWindowValid(t *testing.T) {
	cfg := baseTraceConfig()
	if errs := cfg.Validate(); len(errs) > 0 {
		t.Fatalf("base config invalid: %v", errs)
	}
	// Zero window resolves to the default rather than failing.
	cfg.Window = 0
	if errs := cfg.Validate(); len(errs) > 0 {
		t.Fatalf("zero window invalid after defaults: %v", errs)
	}
}

func TestTraceConfigValidateErrors(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*TraceConfig)
	}{
		{"missing schedule", func(c *TraceConfig) { c.Schedule = tpcw.Schedule{} }},
		{"negative warmup", func(c *TraceConfig) { c.Warmup = -1 }},
		{"bad server config", func(c *TraceConfig) { c.Server.App.MaxWorkers = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := baseTraceConfig()
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
			if _, err := Generate(cfg); !errors.Is(err, core.ErrBadConfig) {
				t.Errorf("Generate error %v does not wrap ErrBadConfig", err)
			}
		})
	}
	// The server config is still validated structurally, not just passed
	// through: a tier shape NewTestbed would reject fails here too.
	var sc server.Config
	cfg := baseTraceConfig()
	cfg.Server = sc
	if errs := cfg.Validate(); len(errs) == 0 {
		t.Fatal("zero server config not rejected")
	}
}

// TestFlagNameLookups pins the -scale and -level spellings every command
// shares, and that anything else is rejected.
func TestFlagNameLookups(t *testing.T) {
	for _, tt := range []struct {
		name      string
		wantScale string        // "" = not a scale
		wantLevel metrics.Level // 0 = not a level
	}{
		{"quick", "quick", 0},
		{"full", "full", 0},
		{"os", "", metrics.LevelOS},
		{"hpc", "", metrics.LevelHPC},
		{"combined", "", metrics.LevelCombined},
		{"", "", 0},
		{"medium", "", 0},
		{"Quick", "", 0},
		{"HPC", "", 0},
		{"gpu", "", 0},
	} {
		s, ok := ScaleByName(tt.name)
		if ok != (tt.wantScale != "") || s.Name != tt.wantScale {
			t.Errorf("ScaleByName(%q) = (%q, %v), want %q", tt.name, s.Name, ok, tt.wantScale)
		}
		l, ok := metrics.LevelByName(tt.name)
		if ok != (tt.wantLevel != 0) || l != tt.wantLevel {
			t.Errorf("metrics.LevelByName(%q) = (%v, %v), want %v", tt.name, l, ok, tt.wantLevel)
		}
	}
}
