// Quickstart: train a hardware-counter capacity monitor on the two
// representative TPC-W mixes and watch it classify a bottleneck-shifting
// workload online.
//
//	go run ./examples/quickstart
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
	// A Lab owns the simulated testbed, measures each mix's saturation
	// knee by offline stress testing, and caches the training traces.
	lab := hpcap.NewLab(hpcap.QuickScale())

	fmt.Println("training the HPC-level capacity monitor (TAN synopses +")
	fmt.Println("two-level coordinated predictor) on browsing and ordering mixes...")
	monitor, err := lab.TrainMonitor(hpcap.LevelHPC, hpcap.CoordinatorConfig{})
	if err != nil {
		return err
	}
	for _, syn := range monitor.Synopses {
		fmt.Printf("  synopsis %-24s 10-fold CV %.3f  attrs %v\n",
			syn.Key(), syn.CV, syn.AttrNames)
	}

	// Drive a workload whose bottleneck shifts between the tiers and let
	// the monitor classify each 30-second window.
	fmt.Println("\nreplaying an interleaved browsing/ordering workload:")
	test, err := lab.TestTrace(hpcap.TestInterleaved)
	if err != nil {
		return err
	}
	// Each prediction stream takes its own session over the shared
	// monitor; the session owns the temporal history.
	sess := monitor.NewSession()
	correct := 0
	for _, w := range test.Windows {
		p, err := sess.Predict(hpcap.Observation{Time: w.Time, Vectors: w.HPC})
		if err != nil {
			return err
		}
		state := "underload"
		if p.Overload {
			state = fmt.Sprintf("OVERLOAD (bottleneck: %s tier)", p.Bottleneck)
		}
		truth := "underload"
		if w.Overload == 1 {
			truth = "OVERLOAD (bottleneck: " + w.Bottleneck.String() + " tier)"
		}
		mark := "  "
		if (w.Overload == 1) == p.Overload {
			correct++
		} else {
			mark = "✗ "
		}
		fmt.Printf("%st=%5.0fs  %-9s ebs=%-4d predicted %-34s truth %s\n",
			mark, w.Time, w.Mix, w.ActiveEBs, state, truth)
	}
	fmt.Printf("\noverload prediction: %d/%d windows correct\n", correct, len(test.Windows))
	return nil
}
