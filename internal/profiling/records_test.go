package profiling

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"
)

// recordReport builds a distinctive valid report for record-stream tests.
func recordReport(seed uint64) *RunReport {
	return &RunReport{
		Schema: ReportSchemaVersion,
		App:    fmt.Sprintf("app%d", seed), SoC: "TC1797", Seed: seed,
		Cycles: 1000 * seed, Resolution: 100, Confidence: 1,
		Params: map[string]ParamStats{
			"ipc": {Mean: 0.25 * float64(seed), Min: 0.1, Max: 0.9, Windows: 7, Confidence: 1},
		},
	}
}

// encodeStream concatenates the checksummed encodings of n reports and
// returns the stream plus each record's body bytes.
func encodeStream(t *testing.T, n int) ([]byte, [][]byte) {
	t.Helper()
	var stream bytes.Buffer
	var bodies [][]byte
	for i := 1; i <= n; i++ {
		r := recordReport(uint64(i))
		b, _, err := r.EncodeSummed()
		if err != nil {
			t.Fatal(err)
		}
		body, _, _, err := VerifySummed(b)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, append([]byte(nil), body...))
		stream.Write(b)
	}
	return stream.Bytes(), bodies
}

// drain reads the stream to EOF, returning every verified body.
func drain(t *testing.T, sc *RecordScanner) [][]byte {
	t.Helper()
	var out [][]byte
	for {
		body, crc, err := sc.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("scanner error: %v", err)
		}
		// Every returned record must re-verify against its own CRC.
		rec := append(append([]byte(nil), body...), []byte(fmt.Sprintf("%s%08x\n", ChecksumPrefix, crc))...)
		if _, _, _, verr := VerifySummed(rec); verr != nil {
			t.Fatalf("returned record does not re-verify: %v", verr)
		}
		out = append(out, body)
	}
}

func TestRecordScannerCleanStream(t *testing.T) {
	stream, bodies := encodeStream(t, 5)
	sc := NewRecordScanner(bytes.NewReader(stream))
	got := drain(t, sc)
	if len(got) != len(bodies) {
		t.Fatalf("recovered %d records, want %d", len(got), len(bodies))
	}
	for i := range got {
		if !bytes.Equal(got[i], bodies[i]) {
			t.Errorf("record %d differs from what was written", i)
		}
	}
	if sc.Skipped() != 0 {
		t.Errorf("clean stream counted %d skips", sc.Skipped())
	}
}

func TestRecordScannerControlLines(t *testing.T) {
	stream, bodies := encodeStream(t, 2)
	// Interleave control lines before, between, and after records.
	parts := bytes.SplitAfter(stream, []byte("\n"))
	var buf bytes.Buffer
	buf.WriteString("//shard hello v=1\n")
	for _, p := range parts {
		buf.Write(p)
		if bytes.HasPrefix(p, []byte(ChecksumPrefix)) {
			buf.WriteString("//shard hb done=1\n")
		}
	}
	sc := NewRecordScanner(&buf)
	var ctl []string
	sc.Control = func(line string) { ctl = append(ctl, line) }
	got := drain(t, sc)
	if len(got) != len(bodies) {
		t.Fatalf("recovered %d records, want %d", len(got), len(bodies))
	}
	if sc.Skipped() != 0 {
		t.Errorf("control lines counted as skips: %d", sc.Skipped())
	}
	if len(ctl) != 3 || !strings.HasPrefix(ctl[0], "//shard hello") {
		t.Errorf("control lines = %q", ctl)
	}
}

// TestRecordScannerGarbageRecovery: garbage lines prepended to an
// intact record are shed and the record survives.
func TestRecordScannerGarbageRecovery(t *testing.T) {
	stream, bodies := encodeStream(t, 3)
	parts := bytes.SplitAfter(stream, []byte("\n"))
	var buf bytes.Buffer
	buf.WriteString("not json at all\n")
	for _, p := range parts {
		buf.Write(p)
		if bytes.HasPrefix(p, []byte(ChecksumPrefix)) {
			buf.WriteString("<<<interleaved garbage>>>\n")
		}
	}
	sc := NewRecordScanner(&buf)
	got := drain(t, sc)
	if len(got) != len(bodies) {
		t.Fatalf("recovered %d records, want %d", len(got), len(bodies))
	}
	for i := range got {
		if !bytes.Equal(got[i], bodies[i]) {
			t.Errorf("record %d corrupted by garbage shedding", i)
		}
	}
	// 3 shed garbage prefixes plus the torn garbage tail after the last
	// record.
	if sc.Skipped() != 4 {
		t.Errorf("skipped = %d, want 4", sc.Skipped())
	}
}

// TestRecordScannerTruncationAndFlips: a torn record and a bit-flipped
// record are dropped and counted; their neighbors survive.
func TestRecordScannerTruncationAndFlips(t *testing.T) {
	good, bodies := encodeStream(t, 1)

	// Torn mid-record (no trailer reached before the next record).
	var buf bytes.Buffer
	buf.Write(good[:len(good)/2])
	buf.WriteString("\n") // make the tear land on a line boundary
	buf.Write(good)
	sc := NewRecordScanner(&buf)
	got := drain(t, sc)
	if len(got) != 1 || !bytes.Equal(got[0], bodies[0]) {
		t.Fatalf("record after tear not recovered (got %d)", len(got))
	}
	if sc.Skipped() == 0 {
		t.Error("tear not counted as a skip")
	}

	// Bit flip in the body: CRC catches it, record dropped.
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/3] ^= 0x10
	sc = NewRecordScanner(bytes.NewReader(flipped))
	if got := drain(t, sc); len(got) != 0 {
		t.Fatalf("bit-flipped record passed verification")
	}
	if sc.Skipped() == 0 {
		t.Error("flip not counted as a skip")
	}

	// Truncated stream (EOF mid-record): torn tail counted.
	sc = NewRecordScanner(bytes.NewReader(good[:len(good)-20]))
	if got := drain(t, sc); len(got) != 0 {
		t.Fatal("truncated record passed verification")
	}
	if sc.Skipped() != 1 {
		t.Errorf("truncation skips = %d, want 1", sc.Skipped())
	}
}

func TestRecordScannerMaxRecord(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 100; i++ {
		buf.WriteString(strings.Repeat("x", 100) + "\n")
	}
	good, bodies := encodeStream(t, 1)
	buf.Write(good)
	sc := NewRecordScanner(&buf)
	sc.maxRecord = 1024
	got := drain(t, sc)
	// The flood is dropped in 1 KiB chunks; the real record follows a
	// partial flood chunk, which suffix recovery sheds.
	if len(got) != 1 || !bytes.Equal(got[0], bodies[0]) {
		t.Fatalf("record after flood not recovered (got %d)", len(got))
	}
	if sc.Skipped() == 0 {
		t.Error("flood not counted")
	}
}

func TestRecordScannerReadError(t *testing.T) {
	stream, _ := encodeStream(t, 1)
	sc := NewRecordScanner(iotest.TimeoutReader(bytes.NewReader(stream[:10])))
	for {
		_, _, err := sc.Next()
		if err == io.EOF {
			t.Fatal("read error reported as clean EOF")
		}
		if err != nil {
			break
		}
	}
}

// TestRecordScannerProperty is the process-boundary property test: a
// stream of valid records mangled by seeded random truncation, bit
// flips, interleaved garbage lines, and record duplication must never
// panic, must never yield a record that fails re-verification, and must
// count every loss as a skip.
func TestRecordScannerProperty(t *testing.T) {
	_, bodies := encodeStream(t, 8)
	valid := map[string]bool{}
	for _, b := range bodies {
		valid[string(b)] = true
	}
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		var buf bytes.Buffer
		wrote := 0
		for _, b := range bodies {
			r := append([]byte(nil), b...)
			rec := append(r, []byte(fmt.Sprintf("%s%08x\n", ChecksumPrefix, crcOf(r)))...)
			switch rng.Intn(5) {
			case 0: // pristine
				buf.Write(rec)
				wrote++
			case 1: // duplicated
				buf.Write(rec)
				buf.Write(rec)
				wrote += 2
			case 2: // truncated (always cutting into the record proper)
				buf.Write(rec[:rng.Intn(len(rec)-2)])
				buf.WriteString("\n")
			case 3: // bit-flipped (never the final newline, which TrimSpace forgives)
				rec[rng.Intn(len(rec)-2)] ^= byte(1 << rng.Intn(8))
				buf.Write(rec)
			case 4: // garbage prepended
				buf.WriteString("garbage line " + strings.Repeat("z", rng.Intn(64)) + "\n")
				buf.Write(rec)
				wrote++
			}
		}
		sc := NewRecordScanner(bytes.NewReader(buf.Bytes()))
		var got int
		for {
			body, _, err := sc.Next()
			if err != nil {
				break
			}
			if !valid[string(body)] {
				// A flipped record could only pass if the flip landed in
				// pure whitespace; the CRC covers every byte, so any
				// returned record must be one of the originals.
				t.Fatalf("trial %d: scanner returned a record that was never written", trial)
			}
			got++
		}
		if got > wrote {
			t.Fatalf("trial %d: recovered %d records, only %d intact ones written", trial, got, wrote)
		}
		if got < wrote && sc.Skipped() == 0 {
			t.Fatalf("trial %d: lost %d records without counting a skip", trial, wrote-got)
		}
	}
}

func crcOf(body []byte) uint32 { return crc32.ChecksumIEEE(body) }

// FuzzRecordScanner feeds arbitrary bytes through the scanner: it must
// never panic, and every record it does return must re-verify.
func FuzzRecordScanner(f *testing.F) {
	var seedBuf bytes.Buffer
	r := recordReport(3)
	b, _, _ := r.EncodeSummed()
	seedBuf.Write(b)
	f.Add(seedBuf.Bytes())
	f.Add([]byte("//crc32:zzzz\n"))
	f.Add([]byte("//crc32:00000000\n"))
	f.Add([]byte("plain\n//shard hb\n" + ChecksumPrefix + "deadbeef\n"))
	f.Add(bytes.Repeat([]byte("x"), 4096))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := NewRecordScanner(bytes.NewReader(data))
		sc.maxRecord = 1 << 16
		sc.Control = func(string) {}
		for i := 0; i < 1<<12; i++ {
			body, crc, err := sc.Next()
			if err != nil {
				return
			}
			rec := append(append([]byte(nil), body...),
				[]byte(fmt.Sprintf("%s%08x\n", ChecksumPrefix, crc))...)
			if _, _, _, verr := VerifySummed(rec); verr != nil {
				t.Fatalf("scanner returned unverifiable record: %v", verr)
			}
		}
	})
}
