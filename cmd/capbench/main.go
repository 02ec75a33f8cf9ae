// Command capbench regenerates the paper's tables and figures on the
// simulated testbed.
//
// Usage:
//
//	capbench -exp all                 # every experiment
//	capbench -exp table1a             # Table I(a): browsing-mix input
//	capbench -exp table1b             # Table I(b): ordering-mix input
//	capbench -exp fig3 [-csv out.csv] # Figure 3 series
//	capbench -exp fig4                # Figures 4(a) and 4(b)
//	capbench -exp timing              # learner build/decision cost (§V.B)
//	capbench -exp overhead            # collection overhead (§V.D)
//	capbench -exp ablation            # history/scheme sensitivity (§V.C)
//	capbench -exp baselines           # single-PI / RT / util baselines vs the monitor
//	capbench -exp levels              # OS vs HPC vs combined OS+HPC monitors
//	capbench -scale quick             # fast, smaller traces
//	capbench -parallel 4              # bound experiment fan-out to 4 workers
//	capbench -cpuprofile cpu.pprof    # write a CPU profile of the run
//	capbench -memprofile mem.pprof    # write an allocation profile on exit
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"hpcap/internal/experiment"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "capbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("capbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: all|table1a|table1b|fig3|fig4|timing|overhead|ablation|baselines|levels")
	scaleName := fs.String("scale", "full", "trace scale: quick|full")
	seed := fs.Int64("seed", 1, "master random seed")
	csv := fs.String("csv", "", "write the Figure 3 series to this CSV file")
	par := fs.Int("parallel", 0, "worker bound for experiment fan-out; 0 = GOMAXPROCS, 1 = sequential (results are identical either way)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "capbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "capbench: memprofile:", err)
			}
		}()
	}

	scale, ok := experiment.ScaleByName(*scaleName)
	if !ok {
		return fmt.Errorf("unknown scale %q", *scaleName)
	}
	lab := experiment.NewLab(scale)
	lab.Seed = *seed
	lab.Workers = *par

	known := map[string]bool{
		"all": true, "table1a": true, "table1b": true, "fig3": true,
		"fig4": true, "fig4a": true, "fig4b": true, "timing": true,
		"overhead": true, "ablation": true, "baselines": true, "levels": true,
	}
	wanted := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		name := strings.TrimSpace(e)
		if !known[name] {
			return fmt.Errorf("unknown experiment %q", name)
		}
		wanted[name] = true
	}
	all := wanted["all"]

	if all {
		// Generate every shared trace up front with full fan-out; the
		// experiments then run over warm caches.
		if err := lab.Prewarm(context.Background()); err != nil {
			return err
		}
	}

	if all || wanted["table1a"] {
		res, err := lab.RunTable1(experiment.TestBrowsing)
		if err != nil {
			return err
		}
		fmt.Println(res)
	}
	if all || wanted["table1b"] {
		res, err := lab.RunTable1(experiment.TestOrdering)
		if err != nil {
			return err
		}
		fmt.Println(res)
	}
	if all || wanted["fig3"] {
		res, err := lab.RunFig3()
		if err != nil {
			return err
		}
		fmt.Println(res)
		if *csv != "" {
			if err := writeFig3CSV(*csv, res); err != nil {
				return err
			}
			fmt.Println("series written to", *csv)
		}
	}
	if all || wanted["fig4"] || wanted["fig4a"] || wanted["fig4b"] {
		res, err := lab.RunFig4()
		if err != nil {
			return err
		}
		fmt.Println(res)
	}
	if all || wanted["timing"] {
		res, err := lab.RunTiming()
		if err != nil {
			return err
		}
		fmt.Println(res)
	}
	if all || wanted["overhead"] {
		res, err := lab.RunOverhead()
		if err != nil {
			return err
		}
		fmt.Println(res)
	}
	if all || wanted["ablation"] {
		res, err := lab.RunAblation()
		if err != nil {
			return err
		}
		fmt.Println(res)
	}
	if all || wanted["baselines"] {
		res, err := lab.RunBaselines()
		if err != nil {
			return err
		}
		fmt.Println(res)
	}
	if all || wanted["levels"] {
		res, err := lab.RunLevelComparison()
		if err != nil {
			return err
		}
		fmt.Println(res)
	}
	return nil
}

func writeFig3CSV(path string, res *experiment.Fig3Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.WriteString("time_s,pi_norm,throughput_norm,pi_raw,throughput_raw,overloaded\n"); err != nil {
		return err
	}
	for _, p := range res.Points {
		row := strings.Join([]string{
			strconv.FormatFloat(p.Time, 'f', 0, 64),
			strconv.FormatFloat(p.PI, 'f', 5, 64),
			strconv.FormatFloat(p.Throughput, 'f', 5, 64),
			strconv.FormatFloat(p.RawPI, 'g', 6, 64),
			strconv.FormatFloat(p.RawThroughput, 'f', 3, 64),
			strconv.Itoa(p.Overloaded),
		}, ",")
		if _, err := f.WriteString(row + "\n"); err != nil {
			return err
		}
	}
	return nil
}
