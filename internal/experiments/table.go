// Package experiments implements the reproduction's evaluation harness:
// one driver per experiment in DESIGN.md (E1–E10, F1, A1–A4), each regenerating
// the corresponding table/series from the paper's claims and worked
// examples. cmd/experiments prints every table (text or JSON); the
// package tests assert each table's shape and byte-compare the full set
// with EXPERIMENTS.md.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Table is one experiment's result: a paper-style table plus the headline
// metrics the shape tests assert on.
type Table struct {
	ID      string
	Title   string
	Header  []string
	Rows    [][]string
	Notes   []string
	Metrics map[string]float64
}

func newTable(id, title string, header ...string) *Table {
	return &Table{ID: id, Title: title, Header: header, Metrics: map[string]float64{}}
}

func (t *Table) addRow(cols ...string) { t.Rows = append(t.Rows, cols) }

func (t *Table) note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// RenderJSON writes the table as a JSON object (machine-readable CI
// output: id, title, header, rows, metrics, notes).
func (t *Table) RenderJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		ID      string             `json:"id"`
		Title   string             `json:"title"`
		Header  []string           `json:"header"`
		Rows    [][]string         `json:"rows"`
		Metrics map[string]float64 `json:"metrics"`
		Notes   []string           `json:"notes,omitempty"`
	}{t.ID, t.Title, t.Header, t.Rows, t.Metrics, t.Notes})
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "=== %s: %s ===\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cols []string) {
		parts := make([]string, len(cols))
		for i, c := range cols {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	if len(t.Metrics) > 0 {
		keys := make([]string, 0, len(t.Metrics))
		for k := range t.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  metric %-32s %.4f\n", k, t.Metrics[k])
		}
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string  { return fmt.Sprintf("%.4f", v) }
func d(v uint64) string    { return fmt.Sprintf("%d", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
