// Command experiments regenerates every table of the reproduction's
// evaluation (experiments E1–E10, F1, and the A1–A4 ablations in
// DESIGN.md / EXPERIMENTS.md), in the order of experiments.All.
//
// Usage:
//
//	experiments [-quick] [-only E3,E4] [-soc TC1797|TC1767|TC1797DC] [-seed N]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/runcfg"
	"repro/internal/soc"
)

func main() {
	quick := flag.Bool("quick", false, "smaller fleets and shorter runs")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	asJSON := flag.Bool("json", false, "emit JSON objects instead of text tables")
	// The base run configuration is shared with tcprof/tcsim/campaigns;
	// experiments fix their own horizons, so only -soc and -seed are bound.
	base := runcfg.Default()
	base.Seed = 2024
	flag.StringVar(&base.SoC, "soc", base.SoC,
		"base SoC preset ("+strings.Join(soc.PresetNames(), "|")+")")
	flag.Uint64Var(&base.Seed, "seed", base.Seed, "reference workload seed")
	flag.Parse()

	if err := experiments.SetBase(base); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(strings.ToUpper(id)); id != "" {
			want[id] = true
		}
	}
	ran := 0
	for _, e := range experiments.All(*quick) {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		tb := e.Run()
		if *asJSON {
			if err := tb.RenderJSON(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		} else {
			tb.Render(os.Stdout)
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matched %q\n", *only)
		os.Exit(1)
	}
}
