package campaign

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestLineReaderBoundsItsBuffer: a line past the bound is dropped
// without ever being held whole, and the reader's end offset stops at
// the last newline, never inside an unterminated tail — the offset a
// resumed journal is cut back to.
func TestLineReaderBoundsItsBuffer(t *testing.T) {
	hb, err := AppendLine(nil, &Message{Kind: "hb", Done: 1})
	if err != nil {
		t.Fatal(err)
	}
	big, err := AppendLine(nil, &Message{Kind: "cell", Index: 1, Report: []byte(`"` + strings.Repeat("x", 5000) + `"`)})
	if err != nil {
		t.Fatal(err)
	}
	stream := append(append(append([]byte(nil), big...), hb...), "unterminated"...)
	l := NewLineReader(bytes.NewReader(stream), 1024)
	m, err := l.Next()
	if err != nil || m.Kind != "hb" {
		t.Fatalf("first verified message = %+v, %v; want the hb after the oversized line", m, err)
	}
	if _, err := l.Next(); err != io.EOF {
		t.Fatalf("unterminated tail: err = %v, want io.EOF", err)
	}
	if l.Torn() != 2 {
		t.Errorf("torn = %d, want 2 (the oversized line and the tail)", l.Torn())
	}
	if cap(l.line) > 4096 {
		t.Errorf("reader grew its line buffer to %d bytes for a %d-byte bound", cap(l.line), l.max)
	}
	if want := int64(len(big) + len(hb)); l.end != want {
		t.Errorf("end = %d, want %d (after the last newline)", l.end, want)
	}
}
