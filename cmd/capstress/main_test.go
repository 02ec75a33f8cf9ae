package main

import "testing"

func TestRunRejectsBadInput(t *testing.T) {
	if err := run([]string{"-mix", "nope"}); err == nil {
		t.Error("bad mix not rejected")
	}
	if err := run([]string{"-ramp", "10:20"}); err == nil {
		t.Error("malformed ramp not rejected")
	}
	if err := run([]string{"-ramp", "a:b:c"}); err == nil {
		t.Error("non-numeric ramp not rejected")
	}
	for _, steps := range []string{"0", "-2"} {
		if err := run([]string{"-ramp", "10:20:" + steps}); err == nil {
			t.Errorf("-ramp with %s steps not rejected", steps)
		}
	}
	for _, d := range []string{"NaN", "Inf", "-Inf", "0"} {
		if err := run([]string{"-duration", d}); err == nil {
			t.Errorf("-duration %s not rejected", d)
		}
	}
	if err := run([]string{"-ramp", "10:20:2", "-step", "NaN"}); err == nil {
		t.Error("-step NaN not rejected")
	}
	if err := run([]string{"-traffic", "bogus for=10"}); err == nil {
		t.Error("unknown traffic shape not rejected")
	}
	if err := run([]string{"-traffic", "steady for=60", "-ramp", "10:30:2"}); err == nil {
		t.Error("-traffic with -ramp not rejected")
	}
}

func TestRunSteadyShort(t *testing.T) {
	if err := run([]string{"-mix", "shopping", "-ebs", "20", "-duration", "60", "-window", "30"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRampShort(t *testing.T) {
	if err := run([]string{"-mix", "ordering", "-ramp", "10:30:2", "-step", "30"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunTrafficShort drives a multi-clause traffic program through the
// classic stress table.
func TestRunTrafficShort(t *testing.T) {
	prog := "steady mix=browsing base=20 for=30; leak base=20 rate=0.5 for=30"
	if err := run([]string{"-traffic", prog, "-window", "30"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsBadWindow: a window below one second would never close,
// so run must refuse it before simulating anything.
func TestRunRejectsBadWindow(t *testing.T) {
	for _, w := range []string{"0", "-5"} {
		if err := run([]string{"-window", w, "-duration", "60"}); err == nil {
			t.Errorf("-window %s not rejected", w)
		}
	}
}
