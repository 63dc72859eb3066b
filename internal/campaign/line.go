// Line codec: the one record format of a campaign, on the wire and on
// disk. A shard worker's stdout and the campaign journal are both
// sequences of lines, each one message — compact JSON, a space, and
// the CRC-32 (IEEE) of the JSON bytes in eight hex digits:
//
//	{"kind":"cell","index":3,"report":{...}} 4fd1a2b3
//
// The checksum covers a report together with the cell index it belongs
// to, so nothing outside a verified line attributes anything. A line
// that exceeds MaxLine, fails its checksum or does not parse is torn:
// it is counted and skipped, and reading goes on with the next line (a
// pipe from a process that can die mid-write, or a file appended to by
// one, tears at any byte, and compact JSON never contains a newline, so
// the next line is the resynchronization point).
package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/obs"
)

// MaxLine bounds one line: far above any run report, low enough that a
// writer flooding garbage without a newline cannot exhaust the
// reader's memory.
const MaxLine = 16 << 20

// Message is one line. Kind selects the fields that carry meaning:
//
//	journal  Version, Hash, Matrix           journal header: format, expansion hash, matrix
//	hello    Version, Hash                   worker's first line: protocol and expansion hash
//	hb       Done                            worker heartbeat, once per period
//	cell     Index, Report (Attempts)        one completed cell (attempts in the journal)
//	fail     Index, Class, Attempts, Error   a terminal per-cell verdict
//	span     Span                            one traced span, after the worker's last cell
//	bye      Done, Failed                    worker's last line: the protocol is over
type Message struct {
	Kind     string          `json:"kind"`
	Index    int             `json:"index,omitempty"`
	Report   json.RawMessage `json:"report,omitempty"`
	Class    Class           `json:"class,omitempty"`
	Attempts int             `json:"attempts,omitempty"`
	Error    string          `json:"error,omitempty"`
	Span     *obs.SpanExport `json:"span,omitempty"`
	Hash     string          `json:"hash,omitempty"`
	Version  int             `json:"version,omitempty"`
	Done     int64           `json:"done,omitempty"`
	Failed   int             `json:"failed,omitempty"`
	Matrix   json.RawMessage `json:"matrix,omitempty"`
}

// AppendLine appends m's line to dst.
func AppendLine(dst []byte, m *Message) ([]byte, error) {
	body, err := json.Marshal(m)
	if err != nil {
		return dst, err
	}
	dst = append(dst, body...)
	return fmt.Appendf(dst, " %08x\n", crc32.ChecksumIEEE(body)), nil
}

// DecodeLine verifies and parses one line, its newline stripped.
func DecodeLine(line []byte) (Message, bool) {
	var m Message
	i := bytes.LastIndexByte(line, ' ')
	if i < 0 || !bytes.Equal(line[i+1:], fmt.Appendf(nil, "%08x", crc32.ChecksumIEEE(line[:i]))) {
		return m, false
	}
	return m, json.Unmarshal(line[:i], &m) == nil
}

// LineReader reads lines one verified message at a time.
type LineReader struct {
	br   *bufio.Reader
	line []byte
	max  int   // line bound
	torn int   // lines dropped: over the bound, failed checksum or parse
	end  int64 // bytes up to the end of the last newline-terminated line
}

// NewLineReader reads r with lines bounded at max bytes (MaxLine, but
// for tests).
func NewLineReader(r io.Reader, max int) *LineReader {
	return &LineReader{br: bufio.NewReader(r), max: max}
}

// Torn returns how many lines the reader has dropped so far.
func (l *LineReader) Torn() int { return l.torn }

// Next returns the next verified message, counting and skipping torn
// lines. At the end of the input it returns io.EOF or the read error;
// an unterminated last line counts as torn.
func (l *LineReader) Next() (Message, error) {
	for {
		line, err := l.readLine()
		if err != nil {
			return Message{}, err
		}
		if m, ok := DecodeLine(line); ok {
			return m, nil
		}
		l.torn++
	}
}

// readLine returns the next line without its newline, or nil when the
// line exceeds the bound (its bytes are read and dropped).
func (l *LineReader) readLine() ([]byte, error) {
	l.line = l.line[:0]
	over := false
	n := 0
	for {
		frag, err := l.br.ReadSlice('\n')
		n += len(frag)
		if !over && len(l.line)+len(frag) <= l.max+1 {
			l.line = append(l.line, frag...)
		} else {
			over = true
		}
		switch err {
		case bufio.ErrBufferFull:
			continue
		case nil:
			l.end += int64(n)
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
