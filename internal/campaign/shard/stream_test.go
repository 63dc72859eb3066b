package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/profiling"
)

// testLine encodes one stream line, panicking on a message that cannot
// marshal (a bug in the test itself).
func testLine(m campaign.Message) []byte {
	line, err := campaign.AppendLine(nil, &m)
	if err != nil {
		panic(err)
	}
	return line
}

// testReport is a distinctive valid run report for stream tests.
func testReport(seed uint64) json.RawMessage {
	report, err := json.Marshal(&profiling.RunReport{
		Schema: profiling.ReportSchemaVersion,
		App:    fmt.Sprintf("app%d", seed), SoC: "TC1797", Seed: seed,
		Cycles: 1000, Resolution: 100, Confidence: 1,
		Params: map[string]profiling.ParamStats{
			"ipc": {Mean: 0.25 * float64(seed), Min: 0.1, Max: 0.9, Windows: 7, Confidence: 1},
		},
	})
	if err != nil {
		panic(err)
	}
	return report
}

func cellMsg(idx int) campaign.Message {
	return campaign.Message{Kind: "cell", Index: idx, Report: testReport(uint64(idx)*31 + 7)}
}

// everyKind is one message of each kind, in protocol order.
func everyKind() []campaign.Message {
	return []campaign.Message{
		{Kind: "hello", Version: ProtocolVersion, Hash: "abc123"},
		{Kind: "hb"},
		cellMsg(0),
		{Kind: "hb", Done: 1},
		cellMsg(5),
		{Kind: "fail", Index: 4, Class: campaign.ClassPermanent, Attempts: 2, Error: "bad preset \"X\"\nsecond line"},
		{Kind: "span", Span: &obs.SpanExport{Name: "cell:x", Cat: "session", Start: 12345, Dur: 678}},
		{Kind: "bye", Done: 2, Failed: 1},
	}
}

// encodeAll concatenates the lines of msgs.
func encodeAll(msgs []campaign.Message) []byte {
	var b []byte
	for _, m := range msgs {
		b = append(b, testLine(m)...)
	}
	return b
}

// readAll drains a line reader: every verified message and the error
// that ended the stream.
func readAll(l *campaign.LineReader) ([]campaign.Message, error) {
	var out []campaign.Message
	for {
		m, err := l.Next()
		if err != nil {
			return out, err
		}
		out = append(out, m)
	}
}

// TestStreamCleanRoundTrip: every message kind survives the line codec
// unchanged, one line each, with nothing counted torn.
func TestStreamCleanRoundTrip(t *testing.T) {
	want := everyKind()
	stream := encodeAll(want)
	if n := bytes.Count(stream, []byte("\n")); n != len(want) {
		t.Fatalf("%d messages took %d lines", len(want), n)
	}
	l := campaign.NewLineReader(bytes.NewReader(stream), campaign.MaxLine)
	got, err := readAll(l)
	if err != io.EOF {
		t.Fatalf("clean stream ended with %v, want io.EOF", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
	}
	if l.Torn() != 0 {
		t.Errorf("clean stream counted %d torn lines", l.Torn())
	}
}

// TestStreamControlLines: control messages written before, between and
// after cells reach the reader in the order written, each one its own
// message, none counted torn and none folded into a cell.
func TestStreamControlLines(t *testing.T) {
	want := []campaign.Message{{Kind: "hello", Version: ProtocolVersion, Hash: "abc123"}}
	for i := 0; i < 3; i++ {
		want = append(want, cellMsg(i), campaign.Message{Kind: "hb", Done: int64(i + 1)})
	}
	want = append(want, campaign.Message{Kind: "bye", Done: 3})
	l := campaign.NewLineReader(bytes.NewReader(encodeAll(want)), campaign.MaxLine)
	got, err := readAll(l)
	if err != io.EOF {
		t.Fatalf("stream ended with %v, want io.EOF", err)
	}
	if l.Torn() != 0 {
		t.Errorf("control lines counted as torn: %d", l.Torn())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("read %d messages, want %d in written order", len(got), len(want))
	}
	var ctl []string
	for _, m := range got {
		if m.Kind != "cell" {
			ctl = append(ctl, m.Kind)
			if m.Report != nil {
				t.Errorf("control message %q carries a report", m.Kind)
			}
		}
	}
	if strings.Join(ctl, ",") != "hello,hb,hb,hb,bye" {
		t.Errorf("control messages = %q", ctl)
	}
}

// TestEmitterRoundTrip: what concurrent senders write through one
// emitter, the line reader reads back whole — no line interleaves with
// another.
func TestEmitterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	em := &emitter{w: &buf}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if err := em.send(cellMsg(i*10 + j)); err != nil {
					t.Error(err)
				}
				if err := em.send(campaign.Message{Kind: "hb", Done: int64(j)}); err != nil {
					t.Error(err)
				}
			}
		}(i)
	}
	wg.Wait()
	l := campaign.NewLineReader(&buf, campaign.MaxLine)
	got, _ := readAll(l)
	cells := map[int]bool{}
	for _, m := range got {
		if m.Kind == "cell" {
			if !reflect.DeepEqual(m, cellMsg(m.Index)) {
				t.Errorf("cell %d mangled in transit", m.Index)
			}
			cells[m.Index] = true
		}
	}
	if len(got) != 160 || len(cells) != 80 || l.Torn() != 0 {
		t.Errorf("read %d messages (%d distinct cells), %d torn; want 160, 80, 0", len(got), len(cells), l.Torn())
	}
}

func crcOf(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// TestDecodeLine: the decoder accepts exactly a line whose checksum
// covers its JSON and whose JSON fits the message; every line the
// retired text protocol wrote is torn.
func TestDecodeLine(t *testing.T) {
	good := bytes.TrimSuffix(testLine(campaign.Message{Kind: "hb", Done: 3}), []byte("\n"))
	if m, ok := campaign.DecodeLine(good); !ok || m.Kind != "hb" || m.Done != 3 {
		t.Fatalf("campaign.DecodeLine(%q) = %+v, %v", good, m, ok)
	}
	body := string(good[:len(good)-9])
	mistyped := []byte(`{"kind":7}`)
	for _, bad := range []string{
		"",
		body,
		body + " ",
		body + " 1234567",
		body + " zzzzzzzz",
		body + fmt.Sprintf(" %08x", crcOf([]byte(body))^1),
		body + fmt.Sprintf("  %08x", crcOf([]byte(body))),
		fmt.Sprintf("%s %08x", mistyped, crcOf(mistyped)),
		"not json 00000000",
		"//shard hello v=1 shard=0 cells=4 hash=abc",
		"//shard cell 3",
		"//crc32:deadbeef",
	} {
		if m, ok := campaign.DecodeLine([]byte(bad)); ok {
			t.Errorf("campaign.DecodeLine(%q) accepted: %+v", bad, m)
		}
	}
}

// TestStreamGarbageBetweenLines: garbage lines before, between and
// after messages are counted torn, one each, and every message
// survives.
func TestStreamGarbageBetweenLines(t *testing.T) {
	want := everyKind()
	var stream []byte
	stream = append(stream, "not a message at all\n"...)
	for _, m := range want {
		stream = append(stream, testLine(m)...)
		stream = append(stream, "<<<interleaved garbage>>>\n"...)
	}
	stream = append(stream, "\x00\xff trailing garbage, unterminated"...)
	l := campaign.NewLineReader(bytes.NewReader(stream), campaign.MaxLine)
	got, err := readAll(l)
	if err != io.EOF {
		t.Fatalf("stream ended with %v, want io.EOF", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("messages lost or mangled among garbage: got %d of %d", len(got), len(want))
	}
	if wantTorn := len(want) + 2; l.Torn() != wantTorn {
		t.Errorf("torn = %d, want %d (one per garbage line)", l.Torn(), wantTorn)
	}
}

// TestStreamTornAndFlipped: a line torn mid-write costs that line and
// the one it runs into; a torn last line is counted; a bit flip
// anywhere in a line drops it. Neighbours survive every time.
func TestStreamTornAndFlipped(t *testing.T) {
	msgs := everyKind()
	cell := testLine(msgs[2])

	// Torn mid-stream: the writer died halfway through a line and the
	// next bytes (a respawn's replay, a chaos duplicate) run into it.
	var stream []byte
	stream = append(stream, testLine(msgs[0])...)
	stream = append(stream, cell[:len(cell)/2]...)
	stream = append(stream, cell...)
	stream = append(stream, cell...)
	l := campaign.NewLineReader(bytes.NewReader(stream), campaign.MaxLine)
	got, _ := readAll(l)
	if len(got) != 2 || !reflect.DeepEqual(got[1], msgs[2]) || l.Torn() != 1 {
		t.Errorf("mid-stream tear: read %d messages, %d torn; want hello + one cell, 1 torn", len(got), l.Torn())
	}

	// Torn last line: EOF before the newline.
	stream = append(testLine(msgs[0]), cell[:len(cell)-3]...)
	l = campaign.NewLineReader(bytes.NewReader(stream), campaign.MaxLine)
	got, err := readAll(l)
	if err != io.EOF || len(got) != 1 || l.Torn() != 1 {
		t.Errorf("torn tail: read %d messages, %d torn, err %v; want 1, 1, EOF", len(got), l.Torn(), err)
	}

	// Every single-bit flip in a line drops exactly that line's message.
	line := testLine(msgs[5])
	for i := 0; i < len(line)-1; i++ {
		for bit := 0; bit < 8; bit++ {
			flipped := append([]byte(nil), line...)
			flipped[i] ^= 1 << bit
			stream := append(append(testLine(msgs[0]), flipped...), testLine(msgs[7])...)
			l := campaign.NewLineReader(bytes.NewReader(stream), campaign.MaxLine)
			got, _ := readAll(l)
			if len(got) != 2 || got[0].Kind != "hello" || got[1].Kind != "bye" || l.Torn() == 0 {
				t.Fatalf("flip of bit %d at byte %d: read %+v, %d torn", bit, i, got, l.Torn())
			}
		}
	}
}

// TestStreamOversizedLine: a line past the bound is dropped and
// counted, and the next line is still read. (That the reader never
// holds such a line whole is TestLineReaderBoundsItsBuffer.)
func TestStreamOversizedLine(t *testing.T) {
	big := campaign.Message{Kind: "cell", Index: 1, Report: json.RawMessage(`"` + strings.Repeat("x", 5000) + `"`)}
	want := everyKind()
	stream := append(testLine(big), encodeAll(want)...)
	stream = append(stream, strings.Repeat("y", 3000)...) // unterminated flood
	l := campaign.NewLineReader(bytes.NewReader(stream), 1024)
	got, err := readAll(l)
	if err != io.EOF || !reflect.DeepEqual(got, want) {
		t.Fatalf("after an oversized line: read %d of %d messages, err %v", len(got), len(want), err)
	}
	if l.Torn() != 2 {
		t.Errorf("torn = %d, want 2 (the oversized line and the flood)", l.Torn())
	}
}

// TestStreamReadError: a failing read ends the stream with that error,
// not io.EOF, after every whole line before it; the partial line it
// cut is counted torn.
func TestStreamReadError(t *testing.T) {
	want := everyKind()
	boom := errors.New("pipe broke")
	stream := append(encodeAll(want), `{"kind":"hb"`...)
	l := campaign.NewLineReader(io.MultiReader(bytes.NewReader(stream), errReader{boom}), campaign.MaxLine)
	got, err := readAll(l)
	if err != boom {
		t.Fatalf("stream ended with %v, want the read error", err)
	}
	if !reflect.DeepEqual(got, want) || l.Torn() != 1 {
		t.Errorf("read %d of %d messages, %d torn; want all, 1 torn", len(got), len(want), l.Torn())
	}
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// TestStreamProperty is the process-boundary property: a stream of
// valid lines mangled by seeded truncation, duplication, bit flips and
// garbage must never yield a message that was not written, and every
// loss must be counted torn.
func TestStreamProperty(t *testing.T) {
	msgs := everyKind()
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		var stream []byte
		wrote := 0
		for _, m := range msgs {
			line := testLine(m)
			switch rng.Intn(5) {
			case 0: // pristine
				stream = append(stream, line...)
				wrote++
			case 1: // duplicated
				stream = append(append(stream, line...), line...)
				wrote += 2
			case 2: // truncated, then the line ends
				stream = append(append(stream, line[:rng.Intn(len(line)-1)]...), '\n')
			case 3: // bit-flipped (never the newline)
				line[rng.Intn(len(line)-1)] ^= byte(1 << rng.Intn(8))
				stream = append(stream, line...)
			case 4: // garbage line in front
				stream = append(stream, "garbage "+strings.Repeat("z", rng.Intn(64))+"\n"...)
				stream = append(stream, line...)
				wrote++
			}
		}
		l := campaign.NewLineReader(bytes.NewReader(stream), campaign.MaxLine)
		got, _ := readAll(l)
		for _, m := range got {
			found := false
			for _, w := range msgs {
				found = found || reflect.DeepEqual(m, w)
			}
			if !found {
				t.Fatalf("trial %d: reader returned a message that was never written: %+v", trial, m)
			}
		}
		if len(got) > wrote {
			t.Fatalf("trial %d: read %d messages, only %d intact ones written", trial, len(got), wrote)
		}
		if lines := bytes.Count(stream, []byte("\n")); len(got)+l.Torn() != lines {
			t.Fatalf("trial %d: %d messages + %d torn != %d lines", trial, len(got), l.Torn(), lines)
		}
	}
}

// FuzzStreamLine feeds arbitrary bytes through the line reader: it must
// never panic, every line is either a message or counted torn, and every
// message it returns re-encodes to a line that decodes to itself.
func FuzzStreamLine(f *testing.F) {
	f.Add(encodeAll(everyKind()))
	f.Add([]byte("//shard hello v=1 shard=0 cells=0 hash=\n//shard cell 0\n//crc32:00000000\n"))
	f.Add([]byte(`{"kind":"hb"} 00000000` + "\n"))
	f.Add(testLine(campaign.Message{Kind: "bye"})[:10])
	f.Add(bytes.Repeat([]byte("x"), 4096))
	f.Fuzz(func(t *testing.T, data []byte) {
		l := campaign.NewLineReader(bytes.NewReader(data), 1<<12)
		got, err := readAll(l)
		if err != io.EOF {
			t.Fatalf("in-memory stream ended with %v", err)
		}
		lines := bytes.Count(data, []byte("\n"))
		if len(data) > 0 && data[len(data)-1] != '\n' {
			lines++
		}
		if len(got)+l.Torn() != lines {
			t.Fatalf("%d messages + %d torn != %d lines", len(got), l.Torn(), lines)
		}
		for _, m := range got {
			line := testLine(m)
			back, ok := campaign.DecodeLine(line[:len(line)-1])
			if !ok || !reflect.DeepEqual(back, m) {
				t.Fatalf("message %+v does not survive its own re-encoding", m)
			}
		}
	})
}

// bytesConn is a finished worker whose whole stream is known up front.
type bytesConn struct{ r io.Reader }

func (c bytesConn) Output() io.Reader { return c.r }
func (c bytesConn) Terminate()        {}
func (c bytesConn) Kill()             {}
func (c bytesConn) Wait() error       { return nil }
func (c bytesConn) Pid() int          { return 0 }

// TestIngestChecks: the supervisor's safety checks on verified lines.
// A hello naming another protocol version or matrix poisons the spawn;
// a report for an unassigned cell or with another seed is an orphan; a
// replayed report is a duplicate; a "fail" verdict is terminal.
func TestIngestChecks(t *testing.T) {
	m := testMatrix()
	m.Seeds = 1
	m.Faults = []string{"clean"} // cells 0 and 1
	cells, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	report := func(idx int, seed uint64) campaign.Message {
		return campaign.Message{Kind: "cell", Index: idx, Report: testReport(seed)}
	}
	for _, tc := range []struct {
		name string
		// stream after the hello
		body                                 []campaign.Message
		hello                                campaign.Message // Hash "" means the spawn's own
		completed, failed, orphan, dup, torn int
	}{
		{"clean", []campaign.Message{report(0, cells[0].Run.Seed), report(1, cells[1].Run.Seed)},
			campaign.Message{Version: ProtocolVersion}, 2, 0, 0, 0, 0},
		{"v1 hello", []campaign.Message{report(0, cells[0].Run.Seed), {Kind: "fail", Index: 1, Class: campaign.ClassPermanent, Error: "x"}},
			campaign.Message{Version: 1}, 0, 2, 2, 0, 0},
		{"foreign matrix", []campaign.Message{report(0, cells[0].Run.Seed), report(1, cells[1].Run.Seed)},
			campaign.Message{Version: ProtocolVersion, Hash: "another-matrix"}, 0, 2, 2, 0, 0},
		{"seed mismatch and unassigned", []campaign.Message{report(0, cells[0].Run.Seed+1), report(2, cells[1].Run.Seed), report(1, cells[1].Run.Seed)},
			campaign.Message{Version: ProtocolVersion}, 1, 1, 2, 0, 0},
		{"replay and fail", []campaign.Message{report(0, cells[0].Run.Seed), report(0, cells[0].Run.Seed),
			{Kind: "fail", Index: 1, Class: campaign.ClassPermanent, Attempts: 2, Error: "bad preset"}},
			campaign.Message{Version: ProtocolVersion}, 1, 1, 0, 1, 0},
		{"unreadable report", []campaign.Message{{Kind: "cell", Index: 0, Report: json.RawMessage(`{"app":"x"}`)}, report(1, cells[1].Run.Seed)},
			campaign.Message{Version: ProtocolVersion}, 1, 1, 0, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.New()
			tr := transportFunc(func(spec Spec) (Conn, error) {
				hello := tc.hello
				hello.Kind = "hello"
				if hello.Hash == "" {
					hello.Hash = spec.Hash
				}
				msgs := append([]campaign.Message{hello}, tc.body...)
				return bytesConn{bytes.NewReader(encodeAll(append(msgs, campaign.Message{Kind: "bye"})))}, nil
			})
			res, err := Run(context.Background(), m, Options{
				Campaign: campaign.Options{Obs: reg}, Shards: 1, Transport: tr, Retries: 0, Logf: t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot()
			orphan, _ := snap.Counter("campaign_shard_orphan_cells")
			if res.Completed != tc.completed || res.Failed != tc.failed || int(orphan) != tc.orphan || res.Dup != tc.dup || res.Torn != tc.torn {
				t.Errorf("completed %d failed %d orphan %d dup %d torn %d; want %d %d %d %d %d",
					res.Completed, res.Failed, orphan, res.Dup, res.Torn,
					tc.completed, tc.failed, tc.orphan, tc.dup, tc.torn)
			}
			for _, ce := range res.Errors {
				if tc.name == "replay and fail" && (ce.Class != campaign.ClassPermanent || ce.Attempts != 2) {
					t.Errorf("worker verdict not kept: %+v", ce)
				}
			}
		})
	}
}

// transportFunc adapts a function to Transport.
type transportFunc func(Spec) (Conn, error)

func (f transportFunc) Start(spec Spec) (Conn, error) { return f(spec) }
