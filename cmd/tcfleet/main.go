// Command tcfleet operates on fleets of profiling runs: it aggregates
// machine-readable run reports (written by tcprof -json) into the
// fleet-level statistical profile the paper's methodology targets, and
// it executes whole campaigns — a declarative matrix of virtual
// customers expanded into parallel profiling sessions whose reports
// stream straight into the aggregator.
//
// Usage:
//
//	tcfleet aggregate [-json] [-out fleet.json] report-dir|report.json ...
//	tcfleet run [-spec campaign.json] [-socs a,b] [-mixes a,b] [-faults a,b]
//	            [-res n,m] [-seeds N] [-seed N] [-cycles N] [-framed] [-degrade]
//	            [-workers N] [-celltimeout D] [-retries N] [-journal dir]
//	            [-shards N] [-shardretries N] [-allow-partial]
//	            [-json] [-out fleet.json] [-outdir reports/]
//	            [-trace spans.json] [-metrics :addr] [-events events.jsonl]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	tcfleet run -resume dir [-workers N] [-celltimeout D] [-retries N] [flags]
//	tcfleet run -agents host:port,... -keyfile key [-shards N] [flags]
//	tcfleet agent -listen host:port -keyfile key [-workers N] [-metrics :addr]
//
// Interrupting a campaign (Ctrl-C) stops the
// in-flight sessions and flushes the partial aggregate; with -journal,
// the interrupted campaign is resumable: "tcfleet run -resume dir"
// reloads the matrix from the journal's header, skips every
// journaled-complete cell, re-runs failed and missing ones, and
// produces an aggregate byte-identical to an uninterrupted run.
// "tcfleet aggregate dir" reads a journal directory as the campaign's
// reports, named by cell ID.
//
// With -shards N the campaign runs across N child worker processes
// ("tcfleet shard-worker", an internal subcommand), each executing a
// deterministic slice of the expanded matrix and streaming its
// reports back as CRC-32-checksummed lines to the supervising parent
// (the line format the journal is written in), which detects
// hangs via heartbeats, respawns crashed workers with backoff (re-running
// only their non-journaled cells), and produces the same byte-identical
// aggregate as an in-process run.
//
// With -agents the shard workers run on remote hosts instead: each
// shard dials a long-lived "tcfleet agent" daemon from the pool,
// authenticates with an HMAC challenge-response over the shared
// -keyfile, uploads its assignment, and streams the same protocol back
// over the socket — supervision (hang detection, respawn with backoff,
// failover to another agent) and the byte-identical aggregate carry
// over unchanged. -shards defaults to the agent count.
//
// With -metrics ADDR the run serves its live telemetry over HTTP for
// its duration: /metrics (JSON snapshot), /metrics/prom (Prometheus
// text exposition), /status (the campaign scoreboard: per-cell state,
// per-shard liveness, throughput and ETA), and /events (a Server-Sent
// Events stream of the flight recorder). ":0" binds an ephemeral port;
// the actual address is printed to stderr. -events persists the flight
// recorder as JSONL at exit; -trace writes a Chrome trace that, for
// sharded runs, stitches every worker's spans into the supervisor's
// timeline (one pid row per shard).
//
// A campaign that finishes with permanently-failed cells exits nonzero
// so CI and scripts cannot mistake a partial aggregate for a complete
// one; -allow-partial restores the old exit-0 behavior.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/campaign"
	"repro/internal/campaign/shard"
	"repro/internal/obs"
	"repro/internal/profiling"
	"repro/internal/runcfg"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tcfleet:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("no arguments; usage:\n" +
			"  tcfleet aggregate [-json] [-out fleet.json] report-dir|report.json ...\n" +
			"  tcfleet run [-spec campaign.json] [flags]")
	}
	switch args[0] {
	case "aggregate":
		return runAggregate(args[1:])
	case "run":
		return runCampaign(args[1:])
	case "agent":
		return runAgent(args[1:])
	case "shard-worker":
		// Internal: the child-process half of "tcfleet run -shards N".
		// Protocol on stdio; never invoked by hand.
		os.Exit(shardWorker(args[1:]))
		return nil
	case "-h", "-help", "--help", "help":
		flag.Usage()
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q (use \"aggregate\", \"run\", or \"agent\")", args[0])
	}
}

// shardWorker runs the one assignment on stdin (a shard.Spec as JSON)
// and returns the worker's exit code; SIGINT/SIGTERM drain it
// gracefully. It takes no arguments: everything comes with the spec.
func shardWorker(args []string) int {
	if len(args) > 0 {
		fmt.Fprintf(os.Stderr, "shard-worker: unexpected arguments %q (the assignment comes on stdin)\n", args)
		return 2
	}
	spec, err := shard.ReadSpec(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shard-worker: %v\n", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return shard.RunWorker(ctx, spec, os.Stdout, os.Stderr)
}

// runAgent is the remote-worker daemon: it listens for authenticated
// supervisor connections and runs one shard-worker assignment per
// connection, in-process. Pair with "tcfleet run -agents ... -keyfile
// ..." on the supervising host; both sides must share the key file.
func runAgent(args []string) error {
	fs := flag.NewFlagSet("tcfleet agent", flag.ExitOnError)
	listen := fs.String("listen", "", "address to accept supervisor connections on (host:port; \":0\" picks an ephemeral port, printed to stderr)")
	keyFile := fs.String("keyfile", "", "shared-key file authenticating supervisors (required; same file as the supervisor's -keyfile)")
	workers := fs.Int("workers", 0, "cap the worker pool of any single assignment (0 = trust the supervisor's spec)")
	metricsAddr := fs.String("metrics", "", "serve agent telemetry over HTTP at this address (/metrics, /metrics/prom)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *listen == "" {
		return fmt.Errorf("agent: -listen is required")
	}
	if *keyFile == "" {
		return fmt.Errorf("agent: -keyfile is required (unauthenticated agents would run anyone's workload)")
	}
	key, err := shard.LoadKey(*keyFile)
	if err != nil {
		return err
	}

	reg := obs.New()
	tel := &runcfg.Telemetry{MetricsAddr: *metricsAddr}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg)
	mux.Handle("/metrics/prom", reg.PromHandler())
	telAddr, closeTel, err := tel.Serve(mux)
	if err != nil {
		return err
	}
	defer closeTel()
	if telAddr != "" {
		fmt.Fprintf(os.Stderr, "tcfleet: agent telemetry at http://%s  (/metrics /metrics/prom)\n", telAddr)
	}

	a := &shard.Agent{
		Key:     key,
		Workers: *workers,
		Obs:     reg,
		Stderr:  os.Stderr,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "tcfleet: "+format+"\n", args...)
		},
	}
	// SIGINT/SIGTERM is graceful shutdown: stop accepting, cancel live
	// workers (they drain like a SIGTERM'd exec worker), then exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return a.ListenAndServe(ctx, *listen, func(addr net.Addr) {
		fmt.Fprintf(os.Stderr, "tcfleet: agent listening on %s\n", addr)
	})
}

func runAggregate(args []string) error {
	fs := flag.NewFlagSet("tcfleet aggregate", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "print the fleet profile as JSON instead of tables")
	outPath := fs.String("out", "", "additionally write the fleet profile JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no inputs; usage: tcfleet aggregate [-json] [-out fleet.json] report-dir|report.json ...")
	}

	paths, journals, err := collect(fs.Args())
	if err != nil {
		return err
	}
	// Reports that do not load, journal lines that do not verify and
	// journals that cannot be read are skipped with a warning; none
	// aborts the aggregation.
	acc := profiling.NewAccumulator()
	skipped := 0
	for _, dir := range journals {
		warns, err := addJournal(acc, dir)
		if err != nil {
			warns = []string{err.Error()}
		}
		for _, w := range warns {
			fmt.Fprintf(os.Stderr, "tcfleet: skipping %s: %s\n", dir, w)
		}
		skipped += len(warns)
	}
	for _, p := range paths {
		r, err := loadReport(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tcfleet: skipping %v\n", err)
			skipped++
			continue
		}
		acc.Add(filepath.Base(p), r)
	}
	if acc.Len() == 0 {
		return fmt.Errorf("no valid run reports among %d file(s) and %d journal(s)", len(paths), len(journals))
	}
	fp, err := acc.Finalize()
	if err != nil {
		return err
	}
	return emit(fp, *jsonOut, *outPath, func() { printProfile(fp, skipped) })
}

// uint64List parses a comma-separated list of unsigned integers.
func uint64List(s string) ([]uint64, error) {
	if s == "" {
		return nil, nil
	}
	var out []uint64
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(tok), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", tok, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

func runCampaign(args []string) error {
	fs := flag.NewFlagSet("tcfleet run", flag.ExitOnError)
	specPath := fs.String("spec", "", "campaign spec file (JSON matrix); flags set explicitly override it")
	name := fs.String("name", "", "campaign name")
	socs := fs.String("socs", "", "comma-separated SoC presets (default TC1797)")
	mixes := fs.String("mixes", "", "comma-separated workload mixes (have: "+strings.Join(workload.MixNames(), ", ")+")")
	faults := fs.String("faults", "", "comma-separated fault scenarios or k=v plans (default clean)")
	res := fs.String("res", "", "comma-separated resolutions (default 1000)")
	seeds := fs.Int("seeds", 0, "seed variants per configuration (default 1)")
	seed := fs.Uint64("seed", 0, "campaign master seed (cell seeds derive from it)")
	cycles := fs.Uint64("cycles", 0, "simulation horizon per cell (default 1000000)")
	framed := fs.Bool("framed", false, "harden the trace path on every cell")
	degrade := fs.Bool("degrade", false, "enable graceful degradation on every cell")
	workers := fs.Int("workers", 0, "worker pool size (default GOMAXPROCS)")
	sup := bindSupervise(fs)
	shardCfg := bindShard(fs)
	allowPartial := fs.Bool("allow-partial", false,
		"exit 0 even when cells failed permanently (default: a partial aggregate exits nonzero)")
	journalDir := fs.String("journal", "", "write-ahead journal directory (makes the campaign resumable after a crash or Ctrl-C)")
	resumeDir := fs.String("resume", "", "resume an interrupted journaled campaign from this directory (matrix comes from the journal)")
	jsonOut := fs.Bool("json", false, "print the fleet profile as JSON instead of tables")
	outPath := fs.String("out", "", "write the fleet profile JSON to this file")
	outDir := fs.String("outdir", "", "write each cell's run report into this directory as it completes")
	tel := runcfg.BindTelemetry(fs)
	runcfg.BindTelemetryEvents(fs, tel)
	hostProf := runcfg.BindProf(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q (campaign cells come from -spec or dimension flags)", fs.Args())
	}

	if err := sup.Validate(); err != nil {
		return err
	}
	if err := shardCfg.Validate(); err != nil {
		return err
	}
	stopProf, err := hostProf.Start()
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "tcfleet:", err)
		}
	}()

	var m campaign.Matrix
	if *specPath != "" {
		var err error
		if m, err = campaign.Load(*specPath); err != nil {
			return err
		}
	}
	var listErr error
	var matrixFlags []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "spec", "name", "socs", "mixes", "faults", "res", "seeds", "seed",
			"cycles", "framed", "degrade":
			matrixFlags = append(matrixFlags, "-"+f.Name)
		}
		switch f.Name {
		case "name":
			m.Name = *name
		case "socs":
			m.SoCs = splitList(*socs)
		case "mixes":
			m.Mixes = splitList(*mixes)
		case "faults":
			m.Faults = splitList(*faults)
		case "res":
			if v, err := uint64List(*res); err != nil {
				listErr = fmt.Errorf("-res: %w", err)
			} else {
				m.Resolutions = v
			}
		case "seeds":
			m.Seeds = *seeds
		case "seed":
			m.Seed = *seed
		case "cycles":
			m.Cycles = *cycles
		case "framed":
			m.Framed = *framed
		case "degrade":
			m.Degrade = *degrade
		}
	})
	if listErr != nil {
		return listErr
	}

	opt := campaign.Options{
		Workers:     *workers,
		Obs:         obs.New(),
		CellTimeout: sup.CellTimeout,
		Retries:     sup.Retries,
	}
	switch {
	case *resumeDir != "":
		// The journal header is the authority on what the campaign was;
		// re-specifying the matrix alongside -resume could only disagree.
		if len(matrixFlags) > 0 {
			return fmt.Errorf("-resume rebuilds the matrix from the journal; drop %s",
				strings.Join(matrixFlags, " "))
		}
		if *journalDir != "" {
			return fmt.Errorf("-resume and -journal are mutually exclusive (resume continues journaling in place)")
		}
		var err error
		if m, err = campaign.LoadJournalMatrix(*resumeDir); err != nil {
			return err
		}
		opt.JournalDir = *resumeDir
		opt.Resume = true
	case *journalDir != "":
		opt.JournalDir = *journalDir
	}
	// Expanding validates the matrix, so a bad one is refused before
	// anything is announced, served or spawned.
	cells, err := m.Expand()
	if err != nil {
		return err
	}
	if tel.TracePath != "" {
		opt.Tracer = obs.NewTracer()
	}
	// The scoreboard and flight recorder exist exactly when someone can
	// observe them: a live endpoint or an -events file. They observe the
	// campaign from the side — a telemetry-off run executes the same code
	// through nil receivers.
	var events *obs.EventLog
	if tel.MetricsAddr != "" || tel.EventsPath != "" {
		events = obs.NewEventLog(obs.DefaultEventLogSize)
		opt.Status = campaign.NewStatus(events)
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		dir := *outDir
		opt.OnReport = func(c campaign.Cell, r *profiling.RunReport) {
			path := filepath.Join(dir, c.ID+".json")
			if err := writeFile(path, r.WriteJSON); err != nil {
				fmt.Fprintf(os.Stderr, "tcfleet: %v\n", err)
			}
		}
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", opt.Obs)
	mux.Handle("/metrics/prom", opt.Obs.PromHandler())
	mux.Handle("/status", opt.Status)
	mux.Handle("/events", events.SSEHandler(0))
	telAddr, closeTel, err := tel.Serve(mux)
	if err != nil {
		return err
	}
	defer closeTel()
	if telAddr != "" {
		// The actual bound address, not the flag value: with ":0" this
		// line is how scripts learn the ephemeral port.
		fmt.Fprintf(os.Stderr, "tcfleet: telemetry at http://%s  (/metrics /metrics/prom /status /events)\n", telAddr)
	}

	fmt.Fprintf(os.Stderr, "tcfleet: campaign %q: %d cells\n", m.Name, len(cells))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Resolve the shard plan before spawning anything. Remote agents
	// imply sharding (default: one shard per agent), and a shard count
	// beyond the cell count is clamped — an empty worker is pure
	// supervision overhead, so spawn exactly as many as there is work.
	agentPool := splitList(shardCfg.Agents)
	shards := shardCfg.Shards
	if len(agentPool) > 0 && shards == 0 {
		shards = len(agentPool)
	}
	if n := len(cells); shards > n && n > 0 {
		fmt.Fprintf(os.Stderr, "tcfleet: clamping -shards %d to %d (one shard per cell; empty workers would only add supervision overhead)\n", shards, n)
		shards = n
	}

	var res2 *campaign.Result
	if shards > 1 || len(agentPool) > 0 {
		var transport shard.Transport
		logf := func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "tcfleet: "+format+"\n", args...)
		}
		if len(agentPool) > 0 {
			key, err := shard.LoadKey(shardCfg.KeyFile)
			if err != nil {
				return err
			}
			transport = &shard.TCPTransport{
				Agents: agentPool,
				Key:    key,
				Obs:    opt.Obs,
				Status: opt.Status,
				Logf:   logf,
			}
		} else {
			exe, err := os.Executable()
			if err != nil {
				return fmt.Errorf("locating own binary for shard workers: %w", err)
			}
			transport = &shard.ExecTransport{Argv: []string{exe, "shard-worker"}, Stderr: os.Stderr}
		}
		var err error
		res2, err = shard.Run(ctx, m, shard.Options{
			Campaign:  opt,
			Shards:    shards,
			Transport: transport,
			Retries:   shardCfg.ShardRetries,
			Logf:      logf,
		})
		if err != nil {
			return err
		}
	} else {
		var err error
		res2, err = campaign.Run(ctx, m, opt)
		if err != nil {
			return err
		}
	}

	for _, w := range res2.Warnings {
		fmt.Fprintf(os.Stderr, "tcfleet: journal: %s\n", w)
	}
	for _, ce := range res2.Errors {
		fmt.Fprintf(os.Stderr, "tcfleet: cell failed: %v\n", ce)
	}
	status := ""
	if res2.Resumed > 0 {
		status += fmt.Sprintf(" (%d resumed from journal)", res2.Resumed)
	}
	if res2.Retried > 0 {
		status += fmt.Sprintf(" (%d retries)", res2.Retried)
	}
	if res2.Restarts > 0 {
		status += fmt.Sprintf(" (%d shard respawns)", res2.Restarts)
	}
	if res2.Torn > 0 || res2.Dup > 0 {
		status += fmt.Sprintf(" (%d torn, %d dup records)", res2.Torn, res2.Dup)
	}
	if res2.Canceled {
		status = " (canceled — partial aggregate"
		if opt.JournalDir != "" {
			status += fmt.Sprintf("; resume with: tcfleet run -resume %s", opt.JournalDir)
		}
		status += ")"
	}
	fmt.Fprintf(os.Stderr,
		"tcfleet: %d/%d sessions completed, %d failed, %d workers, %.2fs wall, %.1fM simulated cycles%s\n",
		res2.Completed, res2.Cells, res2.Failed, res2.Workers,
		res2.Wall.Seconds(), float64(res2.SimCycles)/1e6, status)
	if res2.Profile == nil {
		return fmt.Errorf("no sessions completed")
	}
	if tel.TracePath != "" {
		if err := writeFile(tel.TracePath, opt.Tracer.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "tcfleet: campaign trace written to %s\n", tel.TracePath)
	}
	if tel.EventsPath != "" {
		if err := writeFile(tel.EventsPath, events.WriteJSONL); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "tcfleet: campaign events written to %s\n", tel.EventsPath)
	}
	if err := emit(res2.Profile, *jsonOut, *outPath, func() { printProfile(res2.Profile, 0) }); err != nil {
		return err
	}
	if res2.Failed > 0 && !*allowPartial {
		// A partial aggregate must not masquerade as success: scripts and
		// CI gate on the exit code. The profile above is still complete
		// for the cells that did run; -allow-partial accepts it.
		return fmt.Errorf("%d cell(s) failed permanently; aggregate is partial (use -allow-partial to accept it)", res2.Failed)
	}
	return nil
}

// emit writes the profile to -out when requested and renders it to
// stdout, as JSON or as tables.
func emit(fp *profiling.FleetProfile, jsonOut bool, outPath string, table func()) error {
	if outPath != "" {
		if err := writeFile(outPath, fp.WriteJSON); err != nil {
			return err
		}
	}
	if jsonOut {
		return fp.WriteJSON(os.Stdout)
	}
	table()
	return nil
}

// writeFile streams write into path through a temp file in the
// target's directory and a rename, so readers only ever observe
// absent-or-complete files, never a torn report or fleet profile.
// After the rename, the parent directory is fsync'd: the rename lives
// in the directory entry, and without that barrier a power loss could
// forget it, leaving neither old nor new name.
func writeFile(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := write(tmp); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-completed rename survives power
// loss. Filesystems that refuse to sync directories (some network and
// FUSE mounts return EINVAL/ENOTSUP) degrade to the pre-barrier
// behavior rather than failing the write.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("fsync %s: %w", dir, err)
	}
	return nil
}

// collect sorts the arguments into plain report files — directories
// expand into their *.json files — and journal directories, the ones
// holding a campaign journal.
func collect(args []string) (paths, journals []string, err error) {
	for _, a := range args {
		st, err := os.Stat(a)
		if err != nil {
			return nil, nil, err
		}
		if !st.IsDir() {
			paths = append(paths, a)
			continue
		}
		if _, err := os.Stat(filepath.Join(a, campaign.JournalName)); err == nil {
			journals = append(journals, a)
			continue
		}
		ents, err := os.ReadDir(a)
		if err != nil {
			return nil, nil, err
		}
		n := 0
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
				paths = append(paths, filepath.Join(a, e.Name()))
				n++
			}
		}
		if n == 0 {
			fmt.Fprintf(os.Stderr, "tcfleet: %s contains no *.json reports\n", a)
		}
	}
	sort.Strings(paths)
	return paths, journals, nil
}

// loadReport reads one plain run report file.
func loadReport(path string) (*profiling.RunReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := profiling.ReadRunReport(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// addJournal adds every report the journal in dir verifies to acc
// under its cell ID — the reader resume uses — and returns the
// journal's warnings.
func addJournal(acc *profiling.Accumulator, dir string) ([]string, error) {
	m, err := campaign.LoadJournalMatrix(dir)
	if err != nil {
		return nil, err
	}
	cells, err := m.Expand()
	if err != nil {
		return nil, err
	}
	jd, err := campaign.ReadJournal(dir, cells)
	if err != nil {
		return nil, err
	}
	for i, r := range jd.Reports {
		if r != nil {
			acc.Add(cells[i].ID, r)
		}
	}
	return jd.Warnings, nil
}

func printProfile(fp *profiling.FleetProfile, skipped int) {
	var cycles uint64
	for _, r := range fp.Runs {
		cycles += r.Cycles
	}
	fmt.Printf("fleet: %d runs", len(fp.Runs))
	if skipped > 0 {
		fmt.Printf(" (%d skipped)", skipped)
	}
	fmt.Printf(", %d cycles total\n\n", cycles)

	fmt.Printf("%-40s %-10s %-12s %10s %8s\n", "run", "soc", "faults", "conf", "weight")
	for _, r := range fp.Runs {
		faults := r.FaultPlan
		if faults == "" {
			faults = "-"
		}
		fmt.Printf("%-40s %-10s %-12s %9.1f%% %8.3f\n",
			r.ID, r.SoC, faults, 100*r.Confidence, r.Weight)
	}

	fmt.Printf("\n%-22s %5s %10s %10s %10s %10s %10s %10s\n",
		"parameter", "runs", "wmean", "mean", "p50", "p95", "min", "max")
	for _, p := range fp.Params {
		fmt.Printf("%-22s %5d %10.4f %10.4f %10.4f %10.4f %10.4f %10.4f",
			p.Param, p.Runs, p.WeightedMean, p.Mean, p.P50, p.P95, p.Min, p.Max)
		if len(p.Outliers) > 0 {
			fmt.Printf("  OUTLIERS: %s", strings.Join(p.Outliers, ","))
		}
		fmt.Println()
	}
}
