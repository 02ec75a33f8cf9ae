// Command capbench regenerates the paper's tables and figures on the
// simulated testbed.
//
// Usage:
//
//	capbench -exp all                 # every experiment; -h lists the names
//	capbench -exp table1a,fig4        # named experiments, in table order
//	capbench -exp fig3 -csv out.csv   # also write the Figure 3 series
//	capbench -scale quick             # fast, smaller traces
//	capbench -parallel 4              # bound experiment fan-out to 4 workers
//	capbench -cpuprofile cpu.pprof    # write a CPU profile of the run
//	capbench -memprofile mem.pprof    # write an allocation profile on exit
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
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
	names := []string{"all"}
	for _, e := range experiment.Experiments() {
		names = append(names, e.Name)
	}
	exp := fs.String("exp", "all", "comma-separated experiments: "+strings.Join(names, "|"))
	scaleName := fs.String("scale", "full", "trace scale: quick|full")
	seed := fs.Int64("seed", 1, "master random seed")
	csv := fs.String("csv", "", "write the Figure 3 series to this CSV file (needs fig3 in -exp)")
	par := fs.Int("parallel", 0, "worker bound for experiment fan-out; 0 = GOMAXPROCS, 1 = sequential (results are identical either way)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	exps, err := experiment.Select(*exp)
	if err != nil {
		return err
	}
	if *csv != "" && !slices.ContainsFunc(exps, func(e experiment.Experiment) bool { return e.Name == "fig3" }) {
		return fmt.Errorf("-csv writes the Figure 3 series, but -exp %q does not run fig3", *exp)
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

	if _, err := lab.Render(os.Stdout, *exp); err != nil {
		return err
	}
	if *csv == "" {
		return nil
	}
	// fig3 ran above, so its trace is cached and this run only re-derives
	// the series.
	fig3, err := lab.RunFig3()
	if err != nil {
		return err
	}
	if err := writeCSV(*csv, fig3); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "series written to", *csv)
	return nil
}

// writeCSV writes the Figure 3 series to a new file at path.
func writeCSV(path string, res *experiment.Fig3Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
