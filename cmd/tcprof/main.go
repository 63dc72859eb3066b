// Command tcprof runs the Enhanced System Profiling methodology on an
// Emulation Device: all standard parameters are measured dynamically and
// in parallel by the MCDS, drained over the DAP model, and printed as a
// summary plus (optionally) a CSV timeline, a machine-readable run
// report, and a Chrome trace of the pipeline phases.
//
// Usage:
//
//	tcprof [-soc TC1797|TC1767|TC1797DC] [-seed N] [-cycles N] [-res N]
//	       [-mix engine|lean|...] [-csv timeline.csv] [-rawtrace trace.bin]
//	       [-flow] [-faults scenario|k=v,...] [-framed] [-degrade]
//	       [-json report.json] [-trace spans.json] [-metrics :addr]
//	       [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Interrupting a run (Ctrl-C) cancels the measurement but still drains the
// session: the partial profile of the cycles that did run is reported.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"

	"repro/internal/obs"
	"repro/internal/profiling"
	"repro/internal/runcfg"
	"repro/internal/soc"
	"repro/internal/workload"
)

// joinNames renders a name list for flag help text.
func joinNames(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tcprof:", err)
		os.Exit(1)
	}
}

func run() error {
	rc := runcfg.Bind(flag.CommandLine, runcfg.Default())
	mix := flag.String("mix", "engine", "workload mix (one of: "+joinNames(workload.MixNames())+")")
	csvPath := flag.String("csv", "", "write the per-window timeline as CSV")
	rawPath := flag.String("rawtrace", "", "write the raw DAP byte stream (decode with tracedump)")
	flow := flag.Bool("flow", false, "additionally record the program flow trace")
	diagnose := flag.Float64("diagnose", 0, "diagnose windows with IPC below this threshold")
	plot := flag.Bool("plot", false, "render each parameter's timeline as a sparkline")
	jsonPath := flag.String("json", "", "write the versioned machine-readable run report (aggregate with tcfleet)")
	tel := runcfg.BindTelemetry(flag.CommandLine)
	hostProf := runcfg.BindProf(flag.CommandLine)
	flag.Parse()

	if err := rc.Validate(); err != nil {
		return err
	}
	stopProf, err := hostProf.Start()
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "tcprof:", err)
		}
	}()
	cfg, err := rc.SoCConfig()
	if err != nil {
		return err
	}
	cfg = cfg.WithED()

	spec, ok := workload.Mix(*mix, rc.Seed)
	if !ok {
		return fmt.Errorf("unknown workload mix %q (have %s)", *mix, joinNames(workload.MixNames()))
	}
	s := soc.New(cfg, rc.Seed)
	app, err := workload.Build(s, spec)
	if err != nil {
		return err
	}

	params := append(profiling.StandardParams(), profiling.PCPParams()...)
	profSpec, err := rc.SessionSpec(params)
	if err != nil {
		return err
	}
	if *jsonPath != "" || tel.MetricsAddr != "" {
		profSpec.Obs = obs.New()
	}
	if tel.TracePath != "" {
		profSpec.Tracer = obs.NewTracer()
	}
	sess := profiling.NewSession(s, profSpec)
	if *flow {
		sess.CPUObs().FlowTrace = true
	}

	if tel.MetricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", profSpec.Obs)
		mux.Handle("/metrics/prom", profSpec.Obs.PromHandler())
		addr, closeTel, err := tel.Serve(mux)
		if err != nil {
			return err
		}
		defer closeTel()
		fmt.Printf("metrics: serving http://%s/metrics (and /metrics/prom)\n", addr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := sess.Run(ctx, app, rc.Cycles); err != nil {
		if !errors.Is(err, context.Canceled) {
			return err
		}
		fmt.Fprintf(os.Stderr, "tcprof: %v — reporting the partial profile\n", err)
	}
	prof, err := sess.Result(spec.Name)
	if err != nil {
		return err
	}

	e := s.EMEM
	fmt.Printf("%s  %d cycles  %d instructions  resolution %d\n",
		cfg.Name, prof.Cycles, prof.Instr, rc.Resolution)
	fmt.Printf("trace: %d bytes emitted, %d messages lost, DAP drained %d bytes\n",
		prof.TraceBytes, prof.MsgsLost, sess.DAP.TotalDrained)
	fmt.Printf("ring: peak %d / %d bytes (%.1f%%), %d overflows\n",
		e.PeakLevel, e.TraceCapacity(),
		100*float64(e.PeakLevel)/float64(e.TraceCapacity()), e.MsgsDropped)
	if inj := sess.Injector; inj != nil {
		fmt.Printf("faults[%s]: %d corrupted, %d truncated, %d dropped, %d stalls (%d cyc), %d bit flips, %d jams (%d cyc)\n",
			inj.Plan.Name, inj.FramesCorrupted, inj.FramesTruncated, inj.FramesDropped,
			inj.Stalls, inj.StallCycles, inj.BitFlips, inj.Jams, inj.JamCycles)
	}
	if sess.DAP.Reliable {
		fmt.Printf("link: %d delivered, %d lost, %d gaps, %d retries, %d frames abandoned\n",
			prof.MsgsDelivered, prof.LinkLost, len(prof.Gaps), sess.DAP.Retries, sess.DAP.FramesAbandoned)
		for i, g := range prof.Gaps {
			if i >= 5 {
				fmt.Printf("  ... %d more gaps\n", len(prof.Gaps)-i)
				break
			}
			end := fmt.Sprintf("%d", g.EndCycle)
			if g.Open() {
				end = "end"
			}
			fmt.Printf("  gap @%d..%s: %d messages, %d frames\n", g.StartCycle, end, g.Msgs, g.Frames)
		}
	}
	if d := sess.Degrader; d != nil {
		fmt.Printf("degrade: %d widenings, %d restores, peak factor %d, %d cycles degraded\n",
			d.Widenings, d.Restores, d.MaxFactorSeen, d.CyclesDegraded)
	}
	hasSuspects := false
	for _, name := range prof.Names() {
		if prof.Series[name].Confidence() < 1 {
			hasSuspects = true
		}
	}
	fmt.Printf("%-22s %10s %10s %10s %8s", "parameter", "mean", "min", "max", "windows")
	if hasSuspects {
		fmt.Printf(" %6s", "conf")
	}
	fmt.Println()
	for _, name := range prof.Names() {
		se := prof.Series[name]
		fmt.Printf("%-22s %10.4f %10.4f %10.4f %8d",
			name, se.Mean(), se.Min(), se.Max(), len(se.Samples))
		if hasSuspects {
			fmt.Printf(" %5.1f%%", 100*se.Confidence())
		}
		if *plot {
			fmt.Printf("  %s", se.Sparkline(48))
		}
		fmt.Println()
	}

	if *diagnose > 0 {
		diags := prof.Diagnose("ipc", *diagnose)
		fmt.Printf("\n%d windows below IPC %.2f; top suspects across them:\n", len(diags), *diagnose)
		for i, sp := range profiling.TopSuspects(diags, 3) {
			if i >= 6 {
				break
			}
			fmt.Printf("  %-22s implicated in %d windows\n", sp.Name, sp.Instr)
		}
		for i, dg := range diags {
			if i >= 3 {
				break
			}
			fmt.Printf("  window @%d (IPC %.3f):", dg.Window.Cycle, dg.Window.Rate())
			for j, f := range dg.Factors {
				if j >= 3 {
					break
				}
				fmt.Printf("  %s", f)
			}
			fmt.Println()
		}
	}

	if *csvPath != "" {
		if err := writeCSV(*csvPath, prof); err != nil {
			return err
		}
		fmt.Printf("timeline written to %s\n", *csvPath)
	}
	if *rawPath != "" {
		if err := os.WriteFile(*rawPath, sess.DAP.Received, 0o644); err != nil {
			return err
		}
		fmt.Printf("raw trace written to %s (%d bytes)\n", *rawPath, len(sess.DAP.Received))
	}
	if *jsonPath != "" {
		if err := writeFile(*jsonPath, sess.RunReport(prof, rc.Seed).WriteJSON); err != nil {
			return err
		}
		fmt.Printf("run report written to %s\n", *jsonPath)
	}
	if tel.TracePath != "" {
		if err := writeFile(tel.TracePath, profSpec.Tracer.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Printf("pipeline trace written to %s\n", tel.TracePath)
	}
	return nil
}

// writeFile creates path and streams write into it, surfacing both write
// and close errors (a full disk must not yield a silent truncated file).
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func writeCSV(path string, prof *profiling.Profile) error {
	return writeFile(path, func(f io.Writer) error {
		if _, err := fmt.Fprintln(f, "param,cycle,basis,count,rate"); err != nil {
			return err
		}
		for _, name := range prof.Names() {
			for _, smp := range prof.Series[name].Samples {
				if _, err := fmt.Fprintf(f, "%s,%d,%d,%d,%.6f\n",
					name, smp.Cycle, smp.Basis, smp.Count, smp.Rate()); err != nil {
					return err
				}
			}
		}
		return nil
	})
}
