package experiments

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

type tableKey struct {
	id    string
	quick bool
}

// tables memoizes experiment tables per (id, mode) for the whole test
// binary: the shape tests and the golden check read the same run. The
// tests are sequential, so a plain map suffices.
var tables = map[tableKey]*Table{}

// table returns experiment id's table in the quick or full configuration,
// computing it at most once.
func table(t *testing.T, id string, quick bool) *Table {
	t.Helper()
	k := tableKey{id, quick}
	if tb, ok := tables[k]; ok {
		return tb
	}
	for _, e := range All(quick) {
		if e.ID == id {
			tables[k] = e.Run()
			return tables[k]
		}
	}
	t.Fatalf("no experiment %q", id)
	return nil
}

// maskWallClock blanks the only wall-clock numbers in the tables: E10's
// decode MB/s column (the last one, cut at its header's offset) and its
// decode_mbps_* metric values.
func maskWallClock(s string) string {
	lines := strings.Split(s, "\n")
	inE10, col := false, -1
	for i, l := range lines {
		switch {
		case strings.HasPrefix(l, "=== "):
			inE10, col = strings.HasPrefix(l, "=== E10:"), -1
		case !inE10:
		case strings.HasPrefix(l, "  metric decode_mbps_"):
			lines[i] = strings.Fields(l)[1] + " *"
		case strings.HasPrefix(l, "  metric "), strings.HasPrefix(l, "  note: "):
		default:
			if col < 0 {
				col = strings.Index(l, "decode MB/s")
			}
			if col >= 0 && len(l) > col {
				lines[i] = l[:col] + "*"
			}
		}
	}
	return strings.Join(lines, "\n")
}

// docTables returns the fenced block under EXPERIMENTS.md's "Full
// measured tables" heading.
func docTables(t *testing.T) string {
	t.Helper()
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	i := strings.Index(doc, "## Full measured tables")
	if i < 0 {
		t.Fatal(`EXPERIMENTS.md has no "## Full measured tables" section`)
	}
	doc = doc[i:]
	start := strings.Index(doc, "\n```\n")
	if start < 0 {
		t.Fatal("EXPERIMENTS.md: no fenced block under Full measured tables")
	}
	doc = doc[start+len("\n```\n"):]
	end := strings.Index(doc, "\n```")
	if end < 0 {
		t.Fatal("EXPERIMENTS.md: unterminated table block")
	}
	return doc[:end]
}

// lineDiff lists the lines where want and got differ, at most limit of them.
func lineDiff(want, got string, limit int) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	if len(w) != len(g) {
		fmt.Fprintf(&b, "EXPERIMENTS.md has %d lines, the run %d\n", len(w), len(g))
	}
	for i, n := 0, 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl == gl {
			continue
		}
		if n++; n > limit {
			b.WriteString("...\n")
			break
		}
		fmt.Fprintf(&b, "line %d\n  -doc %q\n  +run %q\n", i+1, wl, gl)
	}
	return b.String()
}

// TestExperimentsDocMatchesRun renders every experiment in the full
// configuration and byte-compares it with EXPERIMENTS.md's table block,
// E10's wall-clock throughput masked. On a mismatch, paste the output of
// `go run ./cmd/experiments` into the block.
func TestExperimentsDocMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full fleet evaluation is slow")
	}
	var buf bytes.Buffer
	for _, e := range All(false) {
		table(t, e.ID, false).Render(&buf)
	}
	want := maskWallClock(strings.TrimRight(docTables(t), "\n"))
	got := maskWallClock(strings.TrimRight(buf.String(), "\n"))
	if got != want {
		t.Errorf("EXPERIMENTS.md tables differ from `go run ./cmd/experiments`:\n%s", lineDiff(want, got, 30))
	}
}
