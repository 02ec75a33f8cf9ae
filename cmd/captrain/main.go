// Command captrain runs the paper's offline training pipeline: it measures
// each training mix's saturation knee, generates the ramp-up/spike/flash
// training traces, builds the performance synopses for every
// (workload, tier, metric level) combination, and writes the labeled traces
// (CSV) plus the synopsis summaries (JSON) to an output directory.
//
// Usage:
//
//	captrain -out ./training -scale full -learner TAN
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"hpcap/internal/experiment"
	"hpcap/internal/metrics"
	"hpcap/internal/ml"
	"hpcap/internal/server"
	"hpcap/internal/synopsis"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "captrain:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("captrain", flag.ContinueOnError)
	out := fs.String("out", "training", "output directory")
	scaleName := fs.String("scale", "full", "trace scale: quick|full")
	learnerName := fs.String("learner", "TAN", "synopsis learner: LR|Naive|SVM|TAN")
	seed := fs.Int64("seed", 1, "master random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	scale, ok := experiment.ScaleByName(*scaleName)
	if !ok {
		return fmt.Errorf("unknown scale %q", *scaleName)
	}
	learner, err := learnerByName(*learnerName)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	lab := experiment.NewLab(scale)
	lab.Seed = *seed

	var summaries []*synopsis.Synopsis
	for _, mix := range experiment.TrainingMixes() {
		w, err := lab.Workload(mix)
		if err != nil {
			return err
		}
		fmt.Printf("workload %-10s knee=%d EBs (flash knee=%d)\n", mix.Name, w.Knee, w.FlashKnee)
		tr, err := lab.TrainingTrace(mix)
		if err != nil {
			return err
		}
		tracePath := filepath.Join(*out, "trace_"+mix.Name+".csv")
		if err := writeTraceCSV(tracePath, tr); err != nil {
			return err
		}
		fmt.Printf("  trace: %d windows -> %s\n", len(tr.Windows), tracePath)

		for tier := server.TierID(0); tier < server.NumTiers; tier++ {
			for _, level := range []metrics.Level{metrics.LevelOS, metrics.LevelHPC} {
				syn, err := lab.BuildSynopsis(mix, tier, level, learner)
				if err != nil {
					return err
				}
				fmt.Printf("  synopsis %-26s cv=%.3f attrs=%v\n", syn.Key(), syn.CV, syn.AttrNames)
				summaries = append(summaries, syn)
			}
		}
	}

	raw, err := json.MarshalIndent(summaries, "", "  ")
	if err != nil {
		return err
	}
	sumPath := filepath.Join(*out, "synopses.json")
	if err := os.WriteFile(sumPath, raw, 0o644); err != nil {
		return err
	}
	fmt.Println("synopsis summaries ->", sumPath)
	return nil
}

func learnerByName(name string) (ml.Learner, error) {
	for _, l := range experiment.Learners() {
		if strings.EqualFold(l.Name, name) {
			return l, nil
		}
	}
	return ml.Learner{}, fmt.Errorf("unknown learner %q (want LR|Naive|SVM|TAN)", name)
}

// writeTraceCSV dumps the labeled window trace: ground truth, health, and
// the full metric vectors of both levels for both tiers.
func writeTraceCSV(path string, tr *experiment.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()

	header := []string{"time_s", "mix", "ebs", "overload", "bottleneck", "throughput", "mean_rt"}
	for tier := server.TierID(0); tier < server.NumTiers; tier++ {
		for _, n := range tr.OSNames {
			header = append(header, tier.String()+"_"+n)
		}
		for _, n := range tr.HPCNames {
			header = append(header, tier.String()+"_"+n)
		}
	}
	if _, err := f.WriteString(strings.Join(header, ",") + "\n"); err != nil {
		return err
	}
	for _, w := range tr.Windows {
		row := []string{
			strconv.FormatFloat(w.Time, 'f', 0, 64),
			w.Mix,
			strconv.Itoa(w.EBs),
			strconv.Itoa(w.Overload),
			w.Bottleneck.String(),
			strconv.FormatFloat(w.Throughput, 'f', 3, 64),
			strconv.FormatFloat(w.MeanRT, 'f', 4, 64),
		}
		for tier := server.TierID(0); tier < server.NumTiers; tier++ {
			for _, v := range w.OS[tier] {
				row = append(row, strconv.FormatFloat(v, 'g', 6, 64))
			}
			for _, v := range w.HPC[tier] {
				row = append(row, strconv.FormatFloat(v, 'g', 6, 64))
			}
		}
		if _, err := f.WriteString(strings.Join(row, ",") + "\n"); err != nil {
			return err
		}
	}
	return nil
}
