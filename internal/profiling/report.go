package profiling

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/obs"
)

// ReportSchemaVersion is the version of the machine-readable run-report
// schema. Bump it whenever the JSON shape of RunReport (or any struct it
// embeds) changes, so fleet tooling can refuse or migrate reports it does
// not understand.
const ReportSchemaVersion = 1

// RunReport is the versioned, machine-readable artifact of one profiling
// run — the unit the paper's methodology aggregates "from many customer
// runs" into statistical profiles. Everything needed to reproduce and to
// weight the run is included: the seed, the SoC configuration, the fault
// plan, full loss accounting and per-parameter statistics. It carries no
// host cost: the session's metrics live on its registry (tcprof -metrics)
// and its spans on its tracer (tcprof -trace), so a report's bytes depend
// only on the simulated run.
type RunReport struct {
	Schema     int    `json:"schema_version"`
	App        string `json:"app"`
	SoC        string `json:"soc"`
	Seed       uint64 `json:"seed"`
	Cycles     uint64 `json:"cycles"`
	Instr      uint64 `json:"instructions"`
	Resolution uint64 `json:"resolution"`
	Framed     bool   `json:"framed,omitempty"`
	FaultPlan  string `json:"fault_plan,omitempty"`

	// Confidence is the run-level trust weight in [0, 1]: the message
	// delivery ratio times the mean fraction of loss-free sample windows.
	// A clean run scores 1; fleet aggregation down-weights lossy runs by
	// this factor.
	Confidence float64 `json:"confidence"`

	Loss   LossStats             `json:"loss"`
	Ring   RingStats             `json:"ring"`
	Params map[string]ParamStats `json:"params"`
	// Metrics has no producer. It stays in the schema v1 key set until
	// the next schema bump deletes it.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// LossStats is the run's trace-loss accounting.
type LossStats struct {
	MsgsLost      uint64 `json:"msgs_lost"`      // dropped at the emitter (overflow)
	MsgsDelivered uint64 `json:"msgs_delivered"` // reached the tool intact (framed)
	LinkLost      uint64 `json:"link_lost"`      // lost between MCDS and tool
	Gaps          int    `json:"gaps"`           // distinct loss regions on the timeline
	TraceBytes    uint64 `json:"trace_bytes"`    // bytes the MCDS emitted
}

// RingStats is the EMEM trace-ring pressure summary.
type RingStats struct {
	Capacity  uint32 `json:"capacity"`  // trace partition size, bytes
	Peak      uint32 `json:"peak"`      // high-water mark, bytes
	Overflows uint64 `json:"overflows"` // messages refused by a full ring
}

// ParamStats is the per-parameter summary of one run.
type ParamStats struct {
	Mean       float64 `json:"mean"`
	Min        float64 `json:"min"`
	Max        float64 `json:"max"`
	Windows    int     `json:"windows"`
	Confidence float64 `json:"confidence"`
}

// RunConfidence returns the run-level trust weight of the profile: the
// message delivery ratio times the mean per-series window confidence.
// Framed sessions know their delivery ratio exactly from the cumulative
// frame counters; unframed sessions approximate delivered messages by the
// sample count that reached the tool.
func (p *Profile) RunConfidence() float64 {
	delivered := p.MsgsDelivered
	if delivered == 0 {
		for _, se := range p.Series {
			delivered += uint64(len(se.Samples))
		}
	}
	total := delivered + p.LinkLost + p.MsgsLost
	ratio := 1.0
	if total > 0 {
		ratio = float64(delivered) / float64(total)
	}
	if len(p.Series) == 0 {
		return ratio
	}
	// Fold in canonical name order: float summation over randomized map
	// iteration would make the confidence differ in the last ulp between
	// otherwise identical runs, breaking byte-identical campaign output.
	var conf float64
	for _, name := range p.Names() {
		conf += p.Series[name].Confidence()
	}
	return ratio * conf / float64(len(p.Series))
}

// RunReport assembles the versioned report for a decoded profile. seed is
// the workload seed (the session does not know it). The report never
// embeds Spec.Obs: a registry's host-cost figures would make two runs of
// one input differ.
func (sess *Session) RunReport(p *Profile, seed uint64) *RunReport {
	e := sess.SoC.EMEM
	r := &RunReport{
		Schema:     ReportSchemaVersion,
		App:        p.App,
		SoC:        sess.SoC.Cfg.Name,
		Seed:       seed,
		Cycles:     p.Cycles,
		Instr:      p.Instr,
		Resolution: sess.spec.Resolution,
		Framed:     sess.spec.framed(),
		Confidence: p.RunConfidence(),
		Loss: LossStats{
			MsgsLost:      p.MsgsLost,
			MsgsDelivered: p.MsgsDelivered,
			LinkLost:      p.LinkLost,
			Gaps:          len(p.Gaps),
			TraceBytes:    p.TraceBytes,
		},
		Ring: RingStats{
			Capacity:  e.TraceCapacity(),
			Peak:      e.PeakLevel,
			Overflows: e.MsgsDropped,
		},
		Params: map[string]ParamStats{},
	}
	if sess.spec.Fault.Active() {
		r.FaultPlan = sess.spec.Fault.Name
	}
	for name, se := range p.Series {
		r.Params[name] = ParamStats{
			Mean:       se.Mean(),
			Min:        se.Min(),
			Max:        se.Max(),
			Windows:    len(se.Samples),
			Confidence: se.Confidence(),
		}
	}
	return r
}

// WriteJSON serializes the report, indented (maps marshal with sorted
// keys, so output is deterministic for a deterministic run).
func (r *RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadRunReport parses one run report and validates its schema version:
// reports from a newer schema are refused (the caller cannot interpret
// them), reports without a version are refused as not being run reports.
func ReadRunReport(rd io.Reader) (*RunReport, error) {
	var r RunReport
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("run report: %w", err)
	}
	if r.Schema == 0 {
		return nil, fmt.Errorf("run report: missing schema_version (not a run report?)")
	}
	if r.Schema > ReportSchemaVersion {
		return nil, fmt.Errorf("run report: schema v%d is newer than supported v%d",
			r.Schema, ReportSchemaVersion)
	}
	return &r, nil
}
