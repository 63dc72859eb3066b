// Package campaign turns the paper's fleet methodology into a runnable
// unit: a campaign is a declarative matrix of virtual customers — seed
// variants × SoC presets × workload mixes × fault scenarios × trace
// resolutions — expanded into independent profiling sessions and
// executed across a bounded worker pool, streaming every finished run
// report into the confidence-weighted fleet aggregator.
//
// The contract that makes campaigns usable for architecture decisions
// is determinism: the same matrix produces a byte-identical fleet
// profile regardless of worker count or scheduling. Two mechanisms
// guarantee it. Every cell's seed is derived at expansion time from the
// campaign seed and the cell's matrix index (never from execution
// order), and the aggregator canonicalizes at Finalize (runs sorted by
// ID, parameters by name, statistics folded over that sorted order), so
// arrival order cannot leak into the output.
package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/runcfg"
	"repro/internal/sim"
	"repro/internal/workload"
)

// MatrixSchemaVersion versions the campaign spec file format.
const MatrixSchemaVersion = 1

// Matrix is the declarative campaign specification. Every dimension
// left empty falls back to a single default entry, so the zero matrix
// (plus a name) is one clean TC1797 engine run.
type Matrix struct {
	Schema int    `json:"schema_version,omitempty"`
	Name   string `json:"name,omitempty"`
	// Seed is the campaign master seed; every cell's run seed is derived
	// from it and the cell index.
	Seed uint64 `json:"seed,omitempty"`
	// Seeds is the number of seed variants per configuration (default 1):
	// the same SoC/mix/fault/resolution profiled as that many distinct
	// virtual customers.
	Seeds       int      `json:"seeds,omitempty"`
	SoCs        []string `json:"socs,omitempty"`        // soc.PresetNames entries; default TC1797
	Mixes       []string `json:"mixes,omitempty"`       // workload.MixNames entries; default engine
	Faults      []string `json:"faults,omitempty"`      // fault.Parse specs; default clean
	Resolutions []uint64 `json:"resolutions,omitempty"` // default 1000
	Cycles      uint64   `json:"cycles,omitempty"`      // horizon per cell; default 1_000_000
	Framed      bool     `json:"framed,omitempty"`
	Degrade     bool     `json:"degrade,omitempty"`
}

// Cell is one expanded campaign entry: a fully resolved run
// configuration plus its stable identity within the campaign.
type Cell struct {
	// Index is the cell's position in canonical expansion order; the
	// cell's seed derives from it, so it is stable across runs.
	Index int `json:"index"`
	// ID is the unique human-readable cell name. The numeric prefix is
	// zero-padded so lexical ID order equals index order.
	ID  string     `json:"id"`
	Mix string     `json:"mix"`
	Run runcfg.Run `json:"run"`
}

// withDefaults returns the matrix with every empty dimension filled in.
func (m Matrix) withDefaults() Matrix {
	def := runcfg.Default()
	if m.Seeds <= 0 {
		m.Seeds = 1
	}
	if len(m.SoCs) == 0 {
		m.SoCs = []string{def.SoC}
	}
	if len(m.Mixes) == 0 {
		m.Mixes = []string{"engine"}
	}
	if len(m.Faults) == 0 {
		m.Faults = []string{"clean"}
	}
	if len(m.Resolutions) == 0 {
		m.Resolutions = []uint64{def.Resolution}
	}
	if m.Cycles == 0 {
		m.Cycles = def.Cycles
	}
	return m
}

// maxCells bounds a matrix's expansion: far beyond any fleet campaign,
// small enough that expanding one never exhausts a worker's memory.
const maxCells = 1 << 16

// Size returns the number of cells the matrix expands to, saturating at
// math.MaxInt rather than overflowing.
func (m Matrix) Size() int {
	m = m.withDefaults()
	n := m.Seeds
	for _, d := range []int{len(m.SoCs), len(m.Mixes), len(m.Faults), len(m.Resolutions)} {
		if n > math.MaxInt/d {
			return math.MaxInt
		}
		n *= d
	}
	return n
}

// idToken sanitizes a dimension value for use inside a cell ID (k=v
// fault plans contain characters that would make IDs unwieldy).
func idToken(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-':
			return r
		}
		return '_'
	}, s)
}

// Expand resolves the matrix into its cells in canonical order (seed
// variant outermost, then SoC, mix, fault, resolution) and validates
// every cell. Each cell's run seed is forked from the campaign seed by
// cell index, so it depends only on the matrix — not on which worker
// eventually executes the cell, making the campaign's aggregate
// independent of worker count and scheduling.
func (m Matrix) Expand() ([]Cell, error) {
	m = m.withDefaults()
	if m.Schema > MatrixSchemaVersion {
		return nil, fmt.Errorf("campaign: spec schema v%d is newer than supported v%d",
			m.Schema, MatrixSchemaVersion)
	}
	total := m.Size()
	if total > maxCells {
		return nil, fmt.Errorf("campaign: %d seeds × %d SoCs × %d mixes × %d faults × %d resolutions is more than %d cells",
			m.Seeds, len(m.SoCs), len(m.Mixes), len(m.Faults), len(m.Resolutions), maxCells)
	}
	width := len(fmt.Sprint(total - 1))
	if width < 4 {
		width = 4
	}
	master := sim.NewRNG(m.Seed)
	cells := make([]Cell, 0, total)
	for sv := 0; sv < m.Seeds; sv++ {
		for _, socName := range m.SoCs {
			for _, mix := range m.Mixes {
				for _, faults := range m.Faults {
					for _, res := range m.Resolutions {
						idx := len(cells)
						run := runcfg.Run{
							SoC:        socName,
							Seed:       master.Fork(uint64(idx) + 1).Uint64(),
							Cycles:     m.Cycles,
							Resolution: res,
							Faults:     faults,
							Framed:     m.Framed,
							Degrade:    m.Degrade,
						}
						if faults != "" && faults != "clean" {
							// Fault injection hardens the link; mirror the
							// tcprof -faults ⇒ -framed implication.
							run.Framed = true
						}
						cell := Cell{
							Index: idx,
							ID: fmt.Sprintf("c%0*d-%s-%s-%s-r%d-s%d", width, idx,
								idToken(socName), idToken(mix), idToken(faults), res, sv),
							Mix: mix,
							Run: run,
						}
						if _, ok := workload.Mix(mix, 0); !ok {
							return nil, fmt.Errorf("campaign: cell %s: unknown workload mix %q (have %s)",
								cell.ID, mix, strings.Join(workload.MixNames(), ", "))
						}
						if err := run.Validate(); err != nil {
							return nil, fmt.Errorf("campaign: cell %s: %w", cell.ID, err)
						}
						cells = append(cells, cell)
					}
				}
			}
		}
	}
	return cells, nil
}

// Read parses a campaign spec from JSON.
func Read(r io.Reader) (Matrix, error) {
	var m Matrix
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return Matrix{}, fmt.Errorf("campaign spec: %w", err)
	}
	if m.Schema > MatrixSchemaVersion {
		return Matrix{}, fmt.Errorf("campaign spec: schema v%d is newer than supported v%d",
			m.Schema, MatrixSchemaVersion)
	}
	return m, nil
}

// Load reads a campaign spec file.
func Load(path string) (Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return Matrix{}, err
	}
	defer f.Close()
	m, err := Read(f)
	if err != nil {
		return Matrix{}, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}
