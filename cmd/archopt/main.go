// Command archopt runs the paper's architecture optimization methodology:
// a fleet of synthetic customer applications is profiled on the current
// generation, every catalog option is estimated analytically and verified
// by re-simulation, and the options are ranked by performance-gain / area
// ratio. With -fmodel N it instead drives N generations of the F-model
// loop and prints generation 0's ranking from that run.
//
// Usage:
//
//	archopt [-fleet N] [-seed N] [-iters N] [-analytical] [-fmodel N] [-report FILE]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math"
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

	if *fleetN < 0 {
		fail(fmt.Errorf("archopt: -fleet %d is negative", *fleetN))
	}
	if *iters > math.MaxUint32 {
		fail(fmt.Errorf("archopt: -iters %d exceeds %d", *iters, uint32(math.MaxUint32)))
	}
	fleet := workload.Fleet(*fleetN, *seed)
	prm := core.DefaultEvalParams()
	prm.Iters = uint32(*iters)
	prm.SkipMeasured = *analytical
	base := soc.TC1797()

	fmt.Println("customer fleet (each structurally different, as in the field):")
	for _, sp := range fleet {
		fmt.Printf("  %s\n", structure(sp))
	}
	fmt.Printf("profiling %d customer applications on %s ...\n", len(fleet), base.Name)

	// The F-model's first generation evaluates exactly what the ranking
	// alone would, so one call serves both.
	var ev *core.Evaluation
	var chain []core.Generation
	var err error
	if *fmodel > 0 {
		chain, err = core.FModel(base, fleet, core.Catalog(), prm, *fmodel)
		if err == nil {
			ev = chain[0].Eval
		}
	} else {
		ev, err = core.Evaluate(base, fleet, core.Catalog(), prm)
	}
	if err != nil {
		fail(err)
	}

	fmt.Printf("\nprofiles on the current generation (%s):\n", base.Name)
	for _, ap := range ev.Profiles {
		fmt.Printf("  %s\n", ap)
	}
	fmt.Println()

	printRow(core.RankingHeader)
	for _, r := range ev.Ranking {
		printRow(r.Row())
	}
	if best, ok := ev.Best(); ok {
		fmt.Printf("\nrecommended for the next generation: %s — %s\n",
			best.Option.Name, best.Option.Desc)
	}

	if *report != "" {
		var b bytes.Buffer
		rep := &core.Report{Title: "Next-generation architecture assessment",
			Profiles: ev.Profiles, Eval: ev}
		_ = rep.WriteMarkdown(&b) // writing to a bytes.Buffer cannot fail
		if err := os.WriteFile(*report, b.Bytes(), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("report written to %s\n", *report)
	}

	if *fmodel > 0 {
		fmt.Printf("\nF-model loop (%d generations):\n", *fmodel)
		for i, g := range chain {
			fmt.Printf("  gen %d: %s", i, g.Config.Name)
			if g.Chosen != nil {
				gain, kind := g.Chosen.Gain()
				fmt.Printf("  -> adopt %s (%s gain %.3f)", g.Chosen.Option.Name, kind, gain)
			}
			fmt.Println()
		}
	}
}

// printRow prints one ranking row (or the header) in aligned columns.
func printRow(c []string) {
	fmt.Printf("%-18s %6s %9s %9s %9s %10s  %s\n", c[0], c[1], c[2], c[3], c[4], c[5], c[6])
}

// structure summarizes how a customer application is built: code and
// table footprint, where CAN reception runs, and where tables live.
func structure(sp workload.Spec) string {
	split := "CAN on CPU"
	if sp.CANOnPCP {
		split = "CAN on PCP"
	}
	if sp.CANViaDMA {
		split = "CAN via DMA"
	}
	tbl := "tables in flash"
	if sp.TablesInScratch {
		tbl = "tables in scratchpad"
	}
	return fmt.Sprintf("%-10s code %2dKB, tables %2dKB, %s, %s",
		sp.Name, sp.CodeKB, sp.TableKB, split, tbl)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
