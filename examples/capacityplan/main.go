// Capacity planning: offline stress testing of the site, as the paper's
// calibration phase performs it. For each TPC-W mix the example bisects for
// the saturation knee (the smallest browser population whose steady state
// is overloaded), measures peak healthy throughput just below the knee, and
// identifies the saturating tier.
//
//	go run ./examples/capacityplan
package main

import (
	"fmt"
	"log"

	"hpcap"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cfg := hpcap.DefaultServerConfig()

	mixes := []hpcap.Mix{
		hpcap.Browsing(),
		hpcap.Shopping(),
		hpcap.Ordering(),
	}
	fmt.Println("offline capacity calibration of the two-tier site")
	fmt.Printf("%-10s %10s %14s %10s %10s %12s\n",
		"mix", "knee EBs", "peak thr/s", "app util", "db util", "bottleneck")
	for _, mix := range mixes {
		knee, err := hpcap.FindKnee(cfg, mix, 40, 1400)
		if err != nil {
			return err
		}
		thr, appU, dbU, err := measure(cfg, mix, knee*9/10)
		if err != nil {
			return err
		}
		bottleneck := hpcap.TierApp
		if dbU > appU {
			bottleneck = hpcap.TierDB
		}
		fmt.Printf("%-10s %10d %14.1f %9.0f%% %9.0f%% %12s\n",
			mix.Name, knee, thr, appU*100, dbU*100, bottleneck)
	}
	fmt.Println("\nutilizations include idle-priority housekeeping; the bottleneck")
	fmt.Println("column uses request-processing load only.")
	return nil
}

// measure runs a steady workload just below the knee and reports settled
// throughput and per-tier foreground utilization.
func measure(cfg hpcap.ServerConfig, mix hpcap.Mix, ebs int) (thr, appU, dbU float64, err error) {
	const warm, span = 240, 240
	tb, err := hpcap.NewTestbed(cfg, hpcap.Steady(mix, ebs, warm+span+10))
	if err != nil {
		return 0, 0, 0, err
	}
	if err := tb.Start(); err != nil {
		return 0, 0, 0, err
	}
	tb.RunInterval(warm)
	var completions int
	var appBusy, dbBusy float64
	for i := 0; i < span; i++ {
		s := tb.RunInterval(1)
		completions += s.Completions
		appBusy += s.Tiers[hpcap.TierApp].FgBusySeconds
		dbBusy += s.Tiers[hpcap.TierDB].FgBusySeconds
	}
	return float64(completions) / span, appBusy / span, dbBusy / span, nil
}
