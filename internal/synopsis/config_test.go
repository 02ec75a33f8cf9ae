package synopsis

import (
	"testing"

	"hpcap/internal/featsel"
)

func TestDefaultConfigValid(t *testing.T) {
	if errs := (Config{}).Validate(); len(errs) > 0 {
		t.Fatalf("zero Config invalid after defaults: %v", errs)
	}
}

func TestConfigValidateDelegatesToSelection(t *testing.T) {
	bad := Config{Selection: featsel.Config{Folds: 1}}
	if errs := bad.Validate(); len(errs) == 0 {
		t.Fatal("invalid selection config not rejected")
	}
}
