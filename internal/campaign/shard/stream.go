// Stream codec: the worker's stdout, as the supervisor reads it. Every
// line is one message — compact JSON, a space, and the CRC-32 (IEEE) of
// the JSON bytes in eight hex digits:
//
//	{"kind":"cell","index":3,"report":{...}} 4fd1a2b3
//
// The checksum covers a report together with the cell index it belongs
// to, so nothing outside a verified line attributes anything. A line
// that exceeds maxLine, fails its checksum or does not parse is torn:
// it is counted and skipped, and reading goes on with the next line (a
// pipe from a process that can die mid-write tears at any byte, and
// compact JSON never contains a newline, so the next line is the
// resynchronization point).
package shard

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// ProtocolVersion versions the worker protocol: the Spec a worker is
// started from and the stream it writes back. The worker's hello names
// it, and the TCP handshake refuses an agent that speaks another.
const ProtocolVersion = 3

// maxLine bounds one stream line: far above any run report, low enough
// that a worker flooding garbage without a newline cannot exhaust the
// supervisor's memory.
const maxLine = 16 << 20

// message is one line of the worker stream. Kind selects the fields
// that carry meaning:
//
//	hello  Version, Hash        first line: protocol and expansion hash
//	hb     Done                 heartbeat, once per period
//	cell   Index, Report        one completed cell
//	fail   Index, Class, Attempts, Error   a terminal per-cell verdict
//	span   Span                 one traced span, after the last cell
//	bye    Done, Failed         last line: the protocol is over
type message struct {
	Kind     string          `json:"kind"`
	Index    int             `json:"index,omitempty"`
	Report   json.RawMessage `json:"report,omitempty"`
	Class    campaign.Class  `json:"class,omitempty"`
	Attempts int             `json:"attempts,omitempty"`
	Error    string          `json:"error,omitempty"`
	Span     *obs.SpanExport `json:"span,omitempty"`
	Hash     string          `json:"hash,omitempty"`
	Version  int             `json:"version,omitempty"`
	Done     int64           `json:"done,omitempty"`
	Failed   int             `json:"failed,omitempty"`
}

// appendLine appends m's stream line to dst.
func appendLine(dst []byte, m *message) ([]byte, error) {
	body, err := json.Marshal(m)
	if err != nil {
		return dst, err
	}
	dst = append(dst, body...)
	return fmt.Appendf(dst, " %08x\n", crc32.ChecksumIEEE(body)), nil
}

// decodeLine verifies and parses one stream line, its newline stripped.
func decodeLine(line []byte) (message, bool) {
	var m message
	i := bytes.LastIndexByte(line, ' ')
	if i < 0 || !bytes.Equal(line[i+1:], fmt.Appendf(nil, "%08x", crc32.ChecksumIEEE(line[:i]))) {
		return m, false
	}
	return m, json.Unmarshal(line[:i], &m) == nil
}

// lineReader reads the worker stream one verified message at a time.
type lineReader struct {
	br   *bufio.Reader
	line []byte
	max  int // line bound: maxLine; tests shrink it
	torn int // lines dropped: over the bound, failed checksum or parse
}

func newLineReader(r io.Reader) *lineReader {
	return &lineReader{br: bufio.NewReader(r), max: maxLine}
}

// next returns the next verified message, counting and skipping torn
// lines. At the end of the stream it returns io.EOF or the read error;
// an unterminated last line counts as torn.
func (l *lineReader) next() (message, error) {
	for {
		line, err := l.readLine()
		if err != nil {
			return message{}, err
		}
		if m, ok := decodeLine(line); ok {
			return m, nil
		}
		l.torn++
	}
}

// readLine returns the next line without its newline, or nil when the
// line exceeds the bound (its bytes are read and dropped).
func (l *lineReader) readLine() ([]byte, error) {
	l.line = l.line[:0]
	over := false
	for {
		frag, err := l.br.ReadSlice('\n')
		if !over && len(l.line)+len(frag) <= l.max+1 {
			l.line = append(l.line, frag...)
		} else {
			over = true
		}
		switch err {
		case bufio.ErrBufferFull:
			continue
		case nil:
			if over {
				return nil, nil
			}
			return l.line[:len(l.line)-1], nil
		}
		if over || len(l.line) > 0 {
			l.torn++
		}
		return nil, err
	}
}
