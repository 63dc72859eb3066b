// Command archopt runs the paper's architecture optimization methodology:
// a fleet of synthetic customer applications is profiled on the current
// generation, every catalog option is estimated analytically and verified
// by re-simulation, and the options are ranked by performance-gain / area
// ratio. With -fmodel N it additionally drives N generations of the
// F-model loop.
//
// Usage:
//
//	archopt [-fleet N] [-seed N] [-iters N] [-analytical] [-fmodel N]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/soc"
	"repro/internal/workload"
)

func main() {
	fleetN := flag.Int("fleet", 6, "number of customer applications")
	seed := flag.Uint64("seed", 77, "fleet seed")
	iters := flag.Uint("iters", 300, "main-loop iterations per measurement")
	analytical := flag.Bool("analytical", false, "skip re-simulation (estimates only)")
	fmodel := flag.Int("fmodel", 0, "run N F-model generations after the ranking")
	report := flag.String("report", "", "write a markdown architect report to this file")
	flag.Parse()

	fleet := workload.Fleet(*fleetN, *seed)
	prm := core.DefaultEvalParams()
	prm.Iters = uint32(*iters)
	prm.SkipMeasured = *analytical

	fmt.Printf("profiling %d customer applications on %s ...\n", len(fleet), soc.TC1797().Name)
	ev, err := core.Evaluate(soc.TC1797(), fleet, core.Catalog(), prm)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("%-18s %6s %9s %9s %9s %10s  %s\n",
		"option", "area", "est gain", "meas gain", "min gain", "gain/area", "verdict")
	for _, r := range ev.Ranking {
		verdict := "accepted"
		if r.Rejected {
			verdict = "REJECTED (regression)"
		}
		fmt.Printf("%-18s %6.2f %9.3f %9.3f %9.3f %10.4f  %s\n",
			r.Option.Name, r.Option.AreaCost, r.EstMean, r.MeaMean, r.MeaMin,
			r.GainPerArea, verdict)
	}
	if best, ok := ev.Best(); ok {
		fmt.Printf("\nrecommended for the next generation: %s — %s\n",
			best.Option.Name, best.Option.Desc)
	}

	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		rep := &core.Report{Title: "Next-generation architecture assessment",
			Profiles: ev.Profiles, Eval: ev}
		if err := rep.WriteMarkdown(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("report written to %s\n", *report)
	}

	if *fmodel > 0 {
		fmt.Printf("\nF-model loop (%d generations):\n", *fmodel)
		chain, err := core.FModel(soc.TC1797(), fleet, core.Catalog(), prm, *fmodel)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for i, g := range chain {
			fmt.Printf("  gen %d: %s", i, g.Config.Name)
			if g.Chosen != nil {
				fmt.Printf("  -> adopt %s (measured gain %.3f)",
					g.Chosen.Option.Name, g.Chosen.MeaMean)
			}
			fmt.Println()
		}
	}
}
