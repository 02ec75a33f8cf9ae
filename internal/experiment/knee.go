package experiment

import (
	"fmt"

	"hpcap/internal/pi"
	"hpcap/internal/server"
	"hpcap/internal/tpcw"
)

// FindKnee locates a mix's saturation knee — the smallest emulated-browser
// population whose settled steady state the ground-truth labeler calls
// overloaded — by bisection over steady-state runs. It is the offline
// stress-testing step the paper uses to calibrate thresholds, and it also
// powers the capacity-planning example.
func FindKnee(cfg server.Config, mix tpcw.Mix, lo, hi int) (int, error) {
	if lo < 1 || hi <= lo {
		return 0, fmt.Errorf("experiment: bad knee bracket [%d, %d]", lo, hi)
	}
	// Ensure the bracket actually straddles the knee.
	if over, err := steadyOverloaded(cfg, mix, hi); err != nil {
		return 0, err
	} else if !over {
		return hi, nil // capacity beyond the bracket; report the bound
	}
	if over, err := steadyOverloaded(cfg, mix, lo); err != nil {
		return 0, err
	} else if over {
		return lo, nil
	}
	for hi-lo > maxInt(2, lo/50) {
		mid := (lo + hi) / 2
		over, err := steadyOverloaded(cfg, mix, mid)
		if err != nil {
			return 0, err
		}
		if over {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// steadyOverloaded runs a steady workload and labels its settled state as
// one window.
func steadyOverloaded(cfg server.Config, mix tpcw.Mix, ebs int) (bool, error) {
	const warmup, measure = 240, 180
	tb, err := server.NewTestbed(cfg, tpcw.Steady(mix, ebs, warmup+measure+10))
	if err != nil {
		return false, err
	}
	if err := tb.Start(); err != nil {
		return false, err
	}
	tb.RunInterval(warmup)
	win, err := pi.NewWindow(measure)
	if err != nil {
		return false, err
	}
	for {
		if tr, ok := win.Add(tb.RunInterval(1)); ok {
			return tr.Overload == 1, nil
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
