// Enginecontrol: the full profiling workflow of the paper's Section 5 on a
// realistic interrupt-driven engine-control application — parallel
// parameter measurement with a DAP drain, hot-window detection on the IPC
// timeline, and function-level attribution from the program flow trace.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/profiling"
	"repro/internal/soc"
	"repro/internal/workload"
)

func main() {
	cfg := soc.TC1797().WithED()
	s := soc.New(cfg, 7)
	app, err := workload.Build(s, workload.Spec{
		Name: "engine", Seed: 7,
		CodeKB: 32, TableKB: 64, FilterTaps: 24, DiagBranches: 16,
		ADCPeriod: 2000, TimerPeriod: 8000, CANMeanGap: 4000,
		EEPROMEmul: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Parallel measurement of every standard parameter, drained live over
	// the two-pin DAP while the application runs.
	sess := profiling.NewSession(s, profiling.Spec{
		Resolution: 500,
		Params:     profiling.StandardParams(),
		DAP:        true,
	})
	sess.CPUObs().FlowTrace = true

	if err := sess.Run(context.Background(), app, 1_500_000); err != nil {
		log.Fatal(err)
	}
	prof, err := sess.Result("engine")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("=== run summary (%s) ===\n", cfg.Name)
	fmt.Printf("instructions %d, cycles %d, IPC %.3f\n",
		prof.Instr, prof.Cycles, prof.Rate("ipc"))
	fmt.Printf("trace %d bytes, %d messages lost (flow trace exceeds the DAP)\n\n",
		prof.TraceBytes, prof.MsgsLost)

	fmt.Println("=== parameter rates (per instruction unless noted) ===")
	for _, name := range prof.Names() {
		se := prof.Series[name]
		if len(se.Samples) == 0 {
			continue
		}
		fmt.Printf("  %-22s mean %.4f   range [%.4f, %.4f]\n",
			name, se.Mean(), se.Min(), se.Max())
	}

	// "identify the interesting spaces of time where the system
	// performance is not optimal"
	hot := prof.HotWindows("ipc", 0.85)
	fmt.Printf("\n=== hot windows: IPC < 0.85 ===\n")
	fmt.Printf("%d of %d windows; first few:\n", len(hot), len(prof.Series["ipc"].Samples))
	for i, h := range hot {
		if i >= 5 {
			break
		}
		fmt.Printf("  cycle %8d: IPC %.3f\n", h.Cycle, h.Rate())
	}

	// Function-level attribution from the flow trace ("System Profiling
	// is the analysis of the application software on function level").
	costs := profiling.FunctionProfile(prof.Msgs, 0, app.Prog)
	fmt.Printf("\n=== hottest functions (from reconstructed flow trace) ===\n")
	var total uint64
	for _, fc := range costs {
		total += fc.Instr
	}
	for i, fc := range costs {
		if i >= 8 {
			break
		}
		name := fc.Name
		if name == "" {
			name = "(startup)"
		}
		fmt.Printf("  %-18s %8d instr  %5.1f%%\n", name, fc.Instr,
			100*float64(fc.Instr)/float64(total))
	}
}
