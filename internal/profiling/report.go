package profiling

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"

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
// plan, full loss accounting, per-parameter statistics, and (optionally)
// the pipeline's own observability metrics.
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

	Loss    LossStats             `json:"loss"`
	Ring    RingStats             `json:"ring"`
	Params  map[string]ParamStats `json:"params"`
	Metrics *obs.Snapshot         `json:"metrics,omitempty"`
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
// the workload seed (the session does not know it). The observability
// snapshot is included when the session was created with Spec.Obs.
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
	if sess.spec.Obs != nil {
		snap := sess.spec.Obs.Snapshot()
		r.Metrics = &snap
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

// ChecksumPrefix marks the CRC-32 trailer line that EncodeSummed
// appends after the report JSON. The trailer rides in the same file
// (an embedded sidecar line), and because ReadRunReport stops at the
// end of the first JSON value, plain readers accept checksummed files
// unchanged.
const ChecksumPrefix = "//crc32:"

// EncodeSummed serializes the report exactly as WriteJSON does and
// appends a CRC-32 (IEEE) trailer line over the JSON bytes. It returns
// the full checksummed encoding and the checksum itself, so callers
// that persist the report (the campaign journal) can cross-record the
// CRC in their own manifest.
func (r *RunReport) EncodeSummed() ([]byte, uint32, error) {
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		return nil, 0, err
	}
	crc := crc32.ChecksumIEEE(buf.Bytes())
	fmt.Fprintf(&buf, "%s%08x\n", ChecksumPrefix, crc)
	return buf.Bytes(), crc, nil
}

// VerifySummed splits a report encoding into its JSON body and CRC-32
// trailer. Files without a trailer pass through untouched (summed
// false); files with a trailer are verified against it — a malformed
// trailer or a checksum mismatch is an error, because it means the
// file was torn or corrupted after it was written.
func VerifySummed(data []byte) (body []byte, crc uint32, summed bool, err error) {
	i := bytes.LastIndex(data, []byte("\n"+ChecksumPrefix))
	if i < 0 {
		return data, 0, false, nil
	}
	line := bytes.TrimSpace(data[i+1+len(ChecksumPrefix):])
	want, perr := strconv.ParseUint(string(line), 16, 32)
	if perr != nil {
		return nil, 0, true, fmt.Errorf("run report: malformed checksum trailer %q", line)
	}
	body = data[:i+1] // the trailing newline is part of the summed body
	got := crc32.ChecksumIEEE(body)
	if got != uint32(want) {
		return nil, got, true, fmt.Errorf("run report: CRC-32 mismatch: trailer says %08x, content is %08x",
			uint32(want), got)
	}
	return body, got, true, nil
}

// LoadRunReportChecked loads one run report from a file, verifying its
// CRC-32 trailer when present. Reports written without a trailer load as
// plain ReadRunReport JSON; checksummed reports whose content no longer
// matches the trailer are refused.
func LoadRunReportChecked(path string) (*RunReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	body, _, _, err := VerifySummed(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	r, err := ReadRunReport(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
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
