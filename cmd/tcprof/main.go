// Command tcprof runs the Enhanced System Profiling methodology on an
// Emulation Device: all standard parameters are measured dynamically and
// in parallel by the MCDS, drained over the DAP model, and printed as a
// summary plus (optionally) a CSV timeline, a machine-readable run
// report, and a Chrome trace of the pipeline phases.
//
// The session is the campaign's product cell (campaign.BuildCell): the
// -json report equals tcfleet's report of that cell byte for byte, and
// carries no host cost (-metrics and -trace expose that).
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
	"strings"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/profiling"
	"repro/internal/runcfg"
	"repro/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcprof:", err)
		os.Exit(1)
	}
}

// run parses args, runs one profiling session of the campaign's product
// cell under ctx and prints its summary to stdout. A ctx canceled
// mid-run still drains the session and reports the partial profile.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tcprof", flag.ExitOnError)
	rc := runcfg.Bind(fs, runcfg.Default())
	mix := fs.String("mix", "engine", "workload mix (one of: "+strings.Join(workload.MixNames(), ", ")+")")
	csvPath := fs.String("csv", "", "write the per-window timeline as CSV")
	rawPath := fs.String("rawtrace", "", "write the raw DAP byte stream (decode with tracedump)")
	flow := fs.Bool("flow", false, "additionally record the program flow trace")
	diagnose := fs.Float64("diagnose", 0, "diagnose windows with IPC below this threshold")
	plot := fs.Bool("plot", false, "render each parameter's timeline as a sparkline")
	jsonPath := fs.String("json", "", "write the versioned machine-readable run report (aggregate with tcfleet)")
	tel := runcfg.BindTelemetry(fs)
	hostProf := runcfg.BindProf(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

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

	var reg *obs.Registry
	var tracer *obs.Tracer
	if tel.MetricsAddr != "" {
		reg = obs.New()
	}
	if tel.TracePath != "" {
		tracer = obs.NewTracer()
	}
	sess, err := campaign.BuildCell(campaign.Cell{Run: *rc, Mix: *mix}, reg, tracer)
	if err != nil {
		return err
	}
	if *flow {
		sess.CPUObs().FlowTrace = true
	}

	if reg != nil {
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg)
		mux.Handle("/metrics/prom", reg.PromHandler())
		addr, closeTel, err := tel.Serve(mux)
		if err != nil {
			return err
		}
		defer closeTel()
		fmt.Fprintf(stdout, "metrics: serving http://%s/metrics (and /metrics/prom)\n", addr)
	}

	if err := sess.Run(ctx, sess.App, rc.Cycles); err != nil {
		if !errors.Is(err, context.Canceled) {
			return err
		}
		fmt.Fprintf(os.Stderr, "tcprof: %v — reporting the partial profile\n", err)
	}
	prof, err := sess.Result(sess.Spec.Name)
	if err != nil {
		return err
	}

	e := sess.SoC.EMEM
	fmt.Fprintf(stdout, "%s  %d cycles  %d instructions  resolution %d\n",
		sess.SoC.Cfg.Name, prof.Cycles, prof.Instr, rc.Resolution)
	fmt.Fprintf(stdout, "trace: %d bytes emitted, %d messages lost, DAP drained %d bytes\n",
		prof.TraceBytes, prof.MsgsLost, sess.DAP.TotalDrained)
	fmt.Fprintf(stdout, "ring: peak %d / %d bytes (%.1f%%), %d overflows\n",
		e.PeakLevel, e.TraceCapacity(),
		100*float64(e.PeakLevel)/float64(e.TraceCapacity()), e.MsgsDropped)
	if inj := sess.Injector; inj != nil {
		fmt.Fprintf(stdout, "faults[%s]: %d corrupted, %d truncated, %d dropped, %d stalls (%d cyc), %d bit flips, %d jams (%d cyc)\n",
			inj.Plan.Name, inj.FramesCorrupted, inj.FramesTruncated, inj.FramesDropped,
			inj.Stalls, inj.StallCycles, inj.BitFlips, inj.Jams, inj.JamCycles)
	}
	if sess.DAP.Reliable {
		fmt.Fprintf(stdout, "link: %d delivered, %d lost, %d gaps, %d retries, %d frames abandoned\n",
			prof.MsgsDelivered, prof.LinkLost, len(prof.Gaps), sess.DAP.Retries, sess.DAP.FramesAbandoned)
		for i, g := range prof.Gaps {
			if i >= 5 {
				fmt.Fprintf(stdout, "  ... %d more gaps\n", len(prof.Gaps)-i)
				break
			}
			end := fmt.Sprintf("%d", g.EndCycle)
			if g.Open() {
				end = "end"
			}
			fmt.Fprintf(stdout, "  gap @%d..%s: %d messages, %d frames\n", g.StartCycle, end, g.Msgs, g.Frames)
		}
	}
	if d := sess.Degrader; d != nil {
		fmt.Fprintf(stdout, "degrade: %d widenings, %d restores, peak factor %d, %d cycles degraded\n",
			d.Widenings, d.Restores, d.MaxFactorSeen, d.CyclesDegraded)
	}
	hasSuspects := false
	for _, name := range prof.Names() {
		if prof.Series[name].Confidence() < 1 {
			hasSuspects = true
		}
	}
	fmt.Fprintf(stdout, "%-22s %10s %10s %10s %8s", "parameter", "mean", "min", "max", "windows")
	if hasSuspects {
		fmt.Fprintf(stdout, " %6s", "conf")
	}
	fmt.Fprintln(stdout)
	for _, name := range prof.Names() {
		se := prof.Series[name]
		fmt.Fprintf(stdout, "%-22s %10.4f %10.4f %10.4f %8d",
			name, se.Mean(), se.Min(), se.Max(), len(se.Samples))
		if hasSuspects {
			fmt.Fprintf(stdout, " %5.1f%%", 100*se.Confidence())
		}
		if *plot {
			fmt.Fprintf(stdout, "  %s", se.Sparkline(48))
		}
		fmt.Fprintln(stdout)
	}

	if *diagnose > 0 {
		diags := prof.Diagnose("ipc", *diagnose)
		fmt.Fprintf(stdout, "\n%d windows below IPC %.2f; top suspects across them:\n", len(diags), *diagnose)
		for i, sp := range profiling.TopSuspects(diags, 3) {
			if i >= 6 {
				break
			}
			fmt.Fprintf(stdout, "  %-22s implicated in %d windows\n", sp.Name, sp.Instr)
		}
		for i, dg := range diags {
			if i >= 3 {
				break
			}
			fmt.Fprintf(stdout, "  window @%d (IPC %.3f):", dg.Window.Cycle, dg.Window.Rate())
			for j, f := range dg.Factors {
				if j >= 3 {
					break
				}
				fmt.Fprintf(stdout, "  %s", f)
			}
			fmt.Fprintln(stdout)
		}
	}

	if *csvPath != "" {
		if err := writeCSV(*csvPath, prof); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "timeline written to %s\n", *csvPath)
	}
	if *rawPath != "" {
		if err := os.WriteFile(*rawPath, sess.DAP.Received, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "raw trace written to %s (%d bytes)\n", *rawPath, len(sess.DAP.Received))
	}
	if *jsonPath != "" {
		if err := writeFile(*jsonPath, sess.RunReport(prof, rc.Seed).WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "run report written to %s\n", *jsonPath)
	}
	if tel.TracePath != "" {
		if err := writeFile(tel.TracePath, tracer.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "pipeline trace written to %s\n", tel.TracePath)
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
