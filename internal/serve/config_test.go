package serve_test

import (
	"errors"
	"testing"
	"time"

	"hpcap/internal/core"
	"hpcap/internal/serve"
)

// checkRejected asserts every error wraps core.ErrBadConfig.
func checkRejected(t *testing.T, name string, errs []error) {
	t.Helper()
	if len(errs) == 0 {
		t.Fatalf("%s not rejected", name)
	}
	for _, err := range errs {
		if !errors.Is(err, core.ErrBadConfig) {
			t.Errorf("%s: error %v does not wrap ErrBadConfig", name, err)
		}
	}
}

func TestServeConfigValidate(t *testing.T) {
	if errs := serve.DefaultConfig().Validate(); len(errs) > 0 {
		t.Fatalf("DefaultConfig invalid: %v", errs)
	}
	if errs := (serve.Config{}).Validate(); len(errs) > 0 {
		t.Fatalf("zero Config invalid after defaults: %v", errs)
	}
	// A one-second window validates: the staleness budget clamps to 0.
	if errs := (serve.Config{Window: 1}).Validate(); len(errs) > 0 {
		t.Fatalf("one-second window rejected: %v", errs)
	}
	checkRejected(t, "negative window", serve.Config{Window: -30}.Validate())
}

func TestShardConfigValidate(t *testing.T) {
	for _, shards := range []int{0, 1, serve.MaxShards} {
		if errs := (serve.ShardConfig{Shards: shards}).Validate(); len(errs) > 0 {
			t.Fatalf("%d shards rejected: %v", shards, errs)
		}
	}
	tests := []struct {
		name string
		cfg  serve.ShardConfig
	}{
		{"negative shards", serve.ShardConfig{Shards: -1}},
		{"too many shards", serve.ShardConfig{Shards: serve.MaxShards + 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			checkRejected(t, tt.name, tt.cfg.Validate())
		})
	}
}

func TestListenConfigValidate(t *testing.T) {
	if errs := serve.DefaultListenConfig().Validate(); len(errs) > 0 {
		t.Fatalf("DefaultListenConfig invalid: %v", errs)
	}
	if errs := (serve.ListenConfig{}).Validate(); len(errs) > 0 {
		t.Fatalf("zero ListenConfig invalid after defaults: %v", errs)
	}
	tests := []struct {
		name string
		cfg  serve.ListenConfig
	}{
		{"negative read timeout", serve.ListenConfig{ReadTimeout: -time.Second}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			checkRejected(t, tt.name, tt.cfg.Validate())
		})
	}
}
