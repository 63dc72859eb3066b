package profiling

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
)

// RecordScanner splits a byte stream into CRC-32-trailed report records
// — the EncodeSummed format — and returns only records whose trailer
// verifies. It is the ingest side of a process boundary: the stream may
// come from a worker process that crashed mid-write, a pipe that tore a
// record, or a log that interleaved garbage, and none of that may ever
// reach the aggregate. Anything that fails verification is counted in
// Skipped and the scanner resynchronizes on the next trailer.
//
// The framing is line-oriented and self-delimiting: a record is every
// non-control line up to and including the next ChecksumPrefix trailer
// line, whose CRC-32 must match the accumulated body. Three recovery
// behaviors make the scanner safe against a hostile stream:
//
//   - A trailer whose CRC does not match the whole accumulated body is
//     retried against every line-boundary suffix of the body (garbage
//     lines prepended to an otherwise intact record are shed, the
//     record survives, and the shed prefix counts as one skip).
//   - A body that never meets its trailer — EOF, or defaultMaxRecord
//     exceeded — is dropped and counted.
//   - Lines beginning with "//" other than the trailer are control
//     lines: they are handed to the Control hook (when set) and never
//     enter a record body, so a side-channel protocol can ride the same
//     stream.
type RecordScanner struct {
	// Control receives every "//"-prefixed line that is not a checksum
	// trailer, in stream order, synchronously from Next. Nil discards
	// them.
	Control func(line string)
	// maxRecord overrides defaultMaxRecord when non-zero; tests shrink it.
	maxRecord int

	sc      *bufio.Scanner
	body    bytes.Buffer
	starts  []int // byte offset of each line start within body
	skipped int
}

// defaultMaxRecord bounds the accumulated body size; a body that grows
// past it without reaching a trailer is dropped as garbage. It is far
// above any real run report, low enough that an unframed garbage flood
// cannot exhaust memory.
const defaultMaxRecord = 16 << 20

// NewRecordScanner returns a scanner over r. Individual lines longer
// than 1 MiB are treated as garbage by the underlying line splitter.
func NewRecordScanner(r io.Reader) *RecordScanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &RecordScanner{sc: sc}
}

// Skipped reports how many torn, oversized, or checksum-failed records
// (including shed garbage prefixes) the scanner has dropped so far.
func (s *RecordScanner) Skipped() int { return s.skipped }

// Next returns the body of the next verified record and its CRC-32.
// It returns io.EOF at a clean end of stream and the underlying read
// error otherwise; in both cases any unterminated partial body has been
// counted as skipped.
func (s *RecordScanner) Next() ([]byte, uint32, error) {
	max := s.maxRecord
	if max <= 0 {
		max = defaultMaxRecord
	}
	for s.sc.Scan() {
		line := s.sc.Bytes()
		if bytes.HasPrefix(line, []byte(ChecksumPrefix)) {
			body, crc, ok := s.verify(line)
			s.reset()
			if ok {
				return body, crc, nil
			}
			s.skipped++
			continue
		}
		if bytes.HasPrefix(line, []byte("//")) {
			if s.Control != nil {
				s.Control(string(line))
			}
			continue
		}
		s.starts = append(s.starts, s.body.Len())
		s.body.Write(line)
		s.body.WriteByte('\n')
		if s.body.Len() > max {
			s.skipped++
			s.reset()
		}
	}
	if s.body.Len() > 0 {
		// Torn tail: a record the writer never finished.
		s.skipped++
		s.reset()
	}
	if err := s.sc.Err(); err != nil {
		return nil, 0, err
	}
	return nil, 0, io.EOF
}

// verify checks the accumulated body against the trailer line. When the
// whole body fails, every line-boundary suffix is tried so garbage
// prepended to an intact record does not destroy it; a shed prefix is
// counted as one skip.
func (s *RecordScanner) verify(trailer []byte) ([]byte, uint32, bool) {
	hex := bytes.TrimSpace(trailer[len(ChecksumPrefix):])
	want64, err := strconv.ParseUint(string(hex), 16, 32)
	if err != nil {
		return nil, 0, false
	}
	want := uint32(want64)
	full := s.body.Bytes()
	for _, off := range s.starts {
		if crc32.ChecksumIEEE(full[off:]) == want {
			if off > 0 {
				s.skipped++ // the shed garbage prefix
			}
			body := make([]byte, len(full)-off)
			copy(body, full[off:])
			return body, want, true
		}
	}
	return nil, 0, false
}

// reset clears the body accumulator between records.
func (s *RecordScanner) reset() {
	s.body.Reset()
	s.starts = s.starts[:0]
}

// AppendSummedRecord encodes the report in its checksummed form and
// appends it to w — the writer-side dual of RecordScanner, used by
// shard workers to stream completed reports over a pipe. The record's
// CRC-32 is returned for cross-recording.
func AppendSummedRecord(w io.Writer, r *RunReport) (uint32, error) {
	b, crc, err := r.EncodeSummed()
	if err != nil {
		return 0, err
	}
	if _, err := w.Write(b); err != nil {
		return 0, fmt.Errorf("record write: %w", err)
	}
	return crc, nil
}
