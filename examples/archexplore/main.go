// Archexplore: the SoC architect's view — aggregate profiles across a
// fleet of differently-structured customer applications, rank the
// architecture option catalog by gain/cost, and drive one F-model
// generation (paper Sections 4 and 6, Figure 1).
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/soc"
	"repro/internal/workload"
)

func main() {
	fleet := workload.Fleet(4, 2026)
	fmt.Println("customer fleet (each structurally different, as in the field):")
	for _, sp := range fleet {
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
		fmt.Printf("  %-10s code %2dKB, tables %2dKB, %s, %s\n",
			sp.Name, sp.CodeKB, sp.TableKB, split, tbl)
	}

	prm := core.DefaultEvalParams()
	prm.Iters = 150
	prm.ProfileHorizon = 250_000

	ev, err := core.Evaluate(soc.TC1797(), fleet, core.Catalog(), prm)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nprofiles on the current generation (TC1797):")
	for _, ap := range ev.Profiles {
		fmt.Printf("  %s\n", ap)
	}
	fmt.Println("\noption ranking (analytical estimate vs re-simulated ground truth):")
	fmt.Printf("  %-18s %9s %9s %9s %10s\n", "option", "est", "measured", "worst app", "gain/area")
	for _, r := range ev.Ranking {
		tag := ""
		if r.Rejected {
			tag = "  <- rejected (regresses a use case)"
		}
		fmt.Printf("  %-18s %9.3f %9.3f %9.3f %10.4f%s\n",
			r.Option.Name, r.EstMean, r.MeaMean, r.MeaMin, r.GainPerArea, tag)
	}

	chain, err := core.FModel(soc.TC1797(), fleet, core.Catalog(), prm, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nF-model step:")
	for i, g := range chain {
		fmt.Printf("  generation %d: %s", i, g.Config.Name)
		if g.Chosen != nil {
			fmt.Printf("  (adopting %s, measured gain %.3f)",
				g.Chosen.Option.Name, g.Chosen.MeaMean)
		}
		fmt.Println()
	}
}
