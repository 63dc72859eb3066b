// Package runcfg is the single definition of "one profiling run's
// configuration" shared by every surface that starts runs: the tcprof and
// tcsim command lines, the experiments driver, and campaign matrix cells.
// Before it existed, each cmd parsed its own -soc/-seed/-cycles/... flags
// and resolved preset names with its own switch; the surfaces drifted.
// Now a Run validates once, resolves once, and serializes as the same JSON
// shape whether it came from flags or from a campaign spec file.
package runcfg

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/fault"
	"repro/internal/profiling"
	"repro/internal/soc"
)

// Run configures one profiling/simulation run. The zero value is not
// runnable; start from Default() or a campaign expansion.
type Run struct {
	SoC        string `json:"soc"`
	Seed       uint64 `json:"seed"`
	Cycles     uint64 `json:"cycles"`
	Resolution uint64 `json:"resolution,omitempty"`
	// Faults is a fault scenario name or k=v plan (fault.Parse syntax);
	// empty or "clean" means no injection.
	Faults  string `json:"faults,omitempty"`
	Framed  bool   `json:"framed,omitempty"`
	Degrade bool   `json:"degrade,omitempty"`
}

// Default returns the canonical run configuration the CLIs use as their
// flag defaults.
func Default() Run {
	return Run{SoC: "TC1797", Seed: 1, Cycles: 1_000_000, Resolution: 1000}
}

// Validate checks the whole configuration and returns the first problem.
// It is the one place run configurations are validated, regardless of
// whether they came from flags, a campaign spec, or code.
func (r Run) Validate() error {
	if _, err := soc.Preset(r.SoC); err != nil {
		return fmt.Errorf("runcfg: %w", err)
	}
	if r.Cycles == 0 {
		return fmt.Errorf("runcfg: zero cycle horizon")
	}
	if r.Resolution == 0 {
		return fmt.Errorf("runcfg: zero resolution")
	}
	if _, err := r.FaultPlan(); err != nil {
		return err
	}
	return nil
}

// SoCConfig resolves the production SoC preset named by the run.
func (r Run) SoCConfig() (soc.Config, error) {
	cfg, err := soc.Preset(r.SoC)
	if err != nil {
		return soc.Config{}, fmt.Errorf("runcfg: %w", err)
	}
	return cfg, nil
}

// FaultPlan parses the run's fault spec (nil when the run is clean; the
// name "clean" is accepted as an explicit alias for no injection).
func (r Run) FaultPlan() (*fault.Plan, error) {
	if r.Faults == "" || r.Faults == "clean" {
		return nil, nil
	}
	plan, err := fault.Parse(r.Faults, r.Seed)
	if err != nil {
		return nil, err
	}
	return &plan, nil
}

// SessionSpec assembles the profiling.Spec for this run: the given
// parameter set at the run's resolution, drained live over the DAP, with
// framing/faults/degradation as configured. Obs and Tracer wiring is left
// to the caller.
func (r Run) SessionSpec(params []profiling.Param) (profiling.Spec, error) {
	spec := profiling.Spec{
		Resolution: r.Resolution,
		Params:     params,
		DAP:        true,
		Framed:     r.Framed,
	}
	plan, err := r.FaultPlan()
	if err != nil {
		return profiling.Spec{}, err
	}
	spec.Fault = plan
	if r.Degrade {
		spec.Degrade = &profiling.DegradePolicy{}
	}
	return spec, nil
}

// Bind registers the full run-configuration flag set (-soc, -seed,
// -cycles, -res, -faults, -framed, -degrade) on fs with defaults from def
// and returns the destination. Call fs.Parse, then Validate.
func Bind(fs *flag.FlagSet, def Run) *Run {
	r := BindBase(fs, def)
	fs.Uint64Var(&r.Resolution, "res", def.Resolution, "resolution (basis events per sample window)")
	fs.StringVar(&r.Faults, "faults", def.Faults,
		"fault scenario (clean|noisy-link|flaky-cable|soft-errors|fifo-jam|everything) or k=v list (corrupt=,trunc=,drop=,stall=,stallmin=,stallmax=,flip=,jam=,jammin=,jammax=)")
	fs.BoolVar(&r.Framed, "framed", def.Framed, "harden the trace path: CRC/seq frames + reliable DAP (implied by -faults)")
	fs.BoolVar(&r.Degrade, "degrade", def.Degrade, "enable graceful degradation (widen resolution under buffer pressure)")
	return r
}

// Telemetry is the shared observability knob set: where to serve the
// live telemetry endpoints and where to persist the trace and event
// artifacts. Every CLI that can run long enough to be worth watching
// exposes the same flags with the same semantics, so an operator who
// learned `tcprof -metrics :9090` already knows `tcfleet run -metrics`.
// runcfg owns only the knobs and the listener; which endpoints hang off
// the mux is each CLI's business (it depends on what the run has — a
// single session has no campaign scoreboard).
type Telemetry struct {
	// MetricsAddr is the HTTP listen address for the live endpoints
	// (/metrics, /metrics/prom and, for campaigns, /status and /events).
	// ":0" binds an ephemeral port — Serve returns the actual address, so
	// scripts and CI can scrape without guessing a free port. Empty
	// disables the listener.
	MetricsAddr string
	// TracePath, when set, asks the CLI to write the run's spans as a
	// Chrome trace_event file at exit.
	TracePath string
	// EventsPath, when set, asks the CLI to persist the flight-recorder
	// event log as JSONL at exit. Only campaigns have an event log;
	// single-session CLIs leave it unregistered.
	EventsPath string
}

// BindTelemetry registers the telemetry flag subset shared by every CLI
// (-metrics, -trace) on fs and returns the destination. CLIs that have
// a flight recorder additionally bind -events onto the same Telemetry
// via BindTelemetryEvents.
func BindTelemetry(fs *flag.FlagSet) *Telemetry {
	t := &Telemetry{}
	fs.StringVar(&t.MetricsAddr, "metrics", "",
		"serve live telemetry at http://ADDR for the duration of the run (\":0\" picks a free port and prints it)")
	fs.StringVar(&t.TracePath, "trace", "",
		"write the run's spans as a Chrome trace (load in about://tracing)")
	return t
}

// BindTelemetryEvents registers -events on fs, persisting the campaign
// flight recorder; call it after BindTelemetry on the same destination.
func BindTelemetryEvents(fs *flag.FlagSet, t *Telemetry) {
	fs.StringVar(&t.EventsPath, "events", "",
		"write the campaign flight-recorder events as JSONL to this file at exit")
}

// Serve binds MetricsAddr and serves h on it from a background
// goroutine for the remainder of the process, returning the actual
// bound address (the only way to learn the port when MetricsAddr is
// ":0") and a closer that stops the listener. With MetricsAddr empty it
// is a no-op returning ("", no-op closer, nil).
func (t *Telemetry) Serve(h http.Handler) (addr string, closer func() error, err error) {
	if t == nil || t.MetricsAddr == "" {
		return "", func() error { return nil }, nil
	}
	ln, err := net.Listen("tcp", t.MetricsAddr)
	if err != nil {
		return "", nil, fmt.Errorf("runcfg: telemetry endpoint: %w", err)
	}
	go http.Serve(ln, h)
	return ln.Addr().String(), ln.Close, nil
}

// Prof is the shared host-profiling knob set: pprof capture of the
// simulator process itself (not the simulated SoC). Every CLI that can
// burn minutes of host CPU exposes the same two flags with the same
// semantics, so `tcprof -cpuprofile` and `tcfleet run -cpuprofile`
// produce interchangeable artifacts for `go tool pprof`.
type Prof struct {
	CPUProfile string
	MemProfile string
}

// BindProf registers the host-profiling flag subset (-cpuprofile,
// -memprofile) on fs and returns the destination. Call fs.Parse, then
// Start.
func BindProf(fs *flag.FlagSet) *Prof {
	p := &Prof{}
	fs.StringVar(&p.CPUProfile, "cpuprofile", "",
		"write a pprof CPU profile of the simulator process to this file")
	fs.StringVar(&p.MemProfile, "memprofile", "",
		"write a pprof heap profile of the simulator process to this file at exit")
	return p
}

// Start begins CPU profiling (when configured) and returns a stop
// function that ends it and writes the heap profile (when configured).
// The stop function is safe to call exactly once; defer it right after a
// successful Start. With both paths empty Start is a no-op returning a
// no-op stop.
func (p *Prof) Start() (stop func() error, err error) {
	var cpuFile *os.File
	if p.CPUProfile != "" {
		cpuFile, err = os.Create(p.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("runcfg: start cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if p.MemProfile != "" {
			f, err := os.Create(p.MemProfile)
			if err != nil {
				return err
			}
			runtime.GC() // fold transient garbage so the profile shows live heap
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				f.Close()
				return fmt.Errorf("runcfg: write heap profile: %w", err)
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// BindBase registers only the simulation-level subset (-soc, -seed,
// -cycles) — what a run without an MCDS (tcsim, experiments) needs.
func BindBase(fs *flag.FlagSet, def Run) *Run {
	r := &Run{Resolution: def.Resolution, Faults: def.Faults, Framed: def.Framed, Degrade: def.Degrade}
	fs.StringVar(&r.SoC, "soc", def.SoC,
		"SoC preset ("+strings.Join(soc.PresetNames(), "|")+")")
	fs.Uint64Var(&r.Seed, "seed", def.Seed, "workload seed")
	fs.Uint64Var(&r.Cycles, "cycles", def.Cycles, "simulation horizon in CPU cycles")
	return r
}
