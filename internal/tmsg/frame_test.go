package tmsg

import (
	"math/rand"
	"testing"
)

// genMsgs returns a deterministic mixed-kind message stream with periodic
// Sync re-anchors on every source used.
func genMsgs(n int) []Msg {
	var out []Msg
	cycle := uint64(0)
	for i := 0; i < n; i++ {
		cycle += uint64(3 + i%7)
		src := uint8(i % 3)
		switch {
		case i%25 == 0:
			out = append(out, Msg{Kind: KindSync, Src: src, Cycle: cycle, PC: uint32(0x8000_0000 + i*4)})
		case i%5 == 0:
			out = append(out, Msg{Kind: KindFlow, Src: src, Cycle: cycle,
				ICount: uint64(i % 11), PC: uint32(0x8000_0000 + i*8)})
		case i%4 == 0:
			out = append(out, Msg{Kind: KindData, Src: src, Cycle: cycle,
				Addr: uint32(0xD000_0000 + i), Data: uint32(i * 3), Write: i%2 == 0})
		default:
			out = append(out, Msg{Kind: KindRate, Src: src, Cycle: cycle,
				CounterID: uint8(i % 4), Basis: 100, Count: uint64(i % 17)})
		}
	}
	return out
}

// frameStream encodes msgs through a Framer and returns the frame bytes.
func frameStream(msgs []Msg) ([]byte, *Framer) {
	var stream []byte
	f := &Framer{Sink: func(frame []byte) bool {
		stream = append(stream, frame...)
		return true
	}}
	var enc Encoder
	var scratch []byte
	for i := range msgs {
		scratch = enc.Encode(scratch[:0], &msgs[i])
		f.Append(scratch)
	}
	f.Flush()
	return stream, f
}

func msgsEqual(t *testing.T, want, got []Msg) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("message count: want %d got %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("message %d: want %+v got %+v", i, want[i], got[i])
		}
	}
}

func TestCRC8DetectsBitErrors(t *testing.T) {
	b := []byte{0x01, 0x42, 0x00, 0xFF, 0x37, 0x80}
	c := crc8(b)
	for i := range b {
		for bit := 0; bit < 8; bit++ {
			b[i] ^= 1 << bit
			if crc8(b) == c {
				t.Fatalf("single-bit flip at byte %d bit %d undetected", i, bit)
			}
			b[i] ^= 1 << bit
		}
	}
}

// crc8Bitwise is the bit-serial CRC-8/AUTOSAR, the oracle for the
// table-driven crc8.
func crc8Bitwise(b []byte) byte {
	c := byte(0xFF)
	for _, x := range b {
		c ^= x
		for i := 0; i < 8; i++ {
			if c&0x80 != 0 {
				c = c<<1 ^ 0x2F
			} else {
				c <<= 1
			}
		}
	}
	return c ^ 0xFF
}

func TestCRC8TableMatchesBitwise(t *testing.T) {
	if got := crc8([]byte("123456789")); got != 0xDF {
		t.Fatalf("CRC-8/AUTOSAR check value = %#02x, want 0xdf", got)
	}
	for i := 0; i < 256; i++ {
		b := []byte{byte(i)}
		if got, want := crc8(b), crc8Bitwise(b); got != want {
			t.Fatalf("byte %#02x: table %#02x, bitwise %#02x", i, got, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 2000; n++ {
		b := make([]byte, rng.Intn(2*MaxFramePayload))
		rng.Read(b)
		if got, want := crc8(b), crc8Bitwise(b); got != want {
			t.Fatalf("buffer %x: table %#02x, bitwise %#02x", b, got, want)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	msgs := genMsgs(500)
	stream, f := frameStream(msgs)
	if f.MsgsFramed != uint64(len(msgs)) {
		t.Fatalf("MsgsFramed = %d, want %d", f.MsgsFramed, len(msgs))
	}

	s := NewStreamDecoder()
	got := s.Feed(stream)
	s.Finalize(f.MsgsFramed)
	msgsEqual(t, msgs, got)
	if s.AccountedLost() != 0 || len(s.Gaps) != 0 {
		t.Fatalf("clean stream reported loss: lost=%d gaps=%d", s.AccountedLost(), len(s.Gaps))
	}
	if s.Delivered != uint64(len(msgs)) {
		t.Fatalf("Delivered = %d, want %d", s.Delivered, len(msgs))
	}
}

func TestNextFrame(t *testing.T) {
	stream, _ := frameStream(genMsgs(20))
	f := stream[:FrameLen(stream)]
	cat := func(parts ...[]byte) []byte {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	for _, tc := range []struct {
		name    string
		b       []byte
		skip, n int
	}{
		{"empty", nil, 0, 0},
		{"frame", f, 0, len(f)},
		{"garbage then frame", cat([]byte{1, 2, 3}, f), 3, len(f)},
		{"no marker", []byte{1, 2, 3}, 3, 0},
		{"false marker then frame", cat([]byte{FrameMarker, 0, 0}, f), 3, len(f)},
		{"header incomplete", []byte{7, FrameMarker, 1}, 1, 0},
		{"frame incomplete", cat([]byte{9}, f[:len(f)-1]), 1, 0},
	} {
		if skip, n := NextFrame(tc.b); skip != tc.skip || n != tc.n {
			t.Errorf("%s: NextFrame = %d, %d; want %d, %d", tc.name, skip, n, tc.skip, tc.n)
		}
	}
}

func TestFrameRoundTripChunked(t *testing.T) {
	msgs := genMsgs(300)
	stream, f := frameStream(msgs)

	s := NewStreamDecoder()
	var got []Msg
	for i := 0; i < len(stream); i += 13 {
		end := i + 13
		if end > len(stream) {
			end = len(stream)
		}
		got = append(got, s.Feed(stream[i:end])...)
	}
	s.Finalize(f.MsgsFramed)
	msgsEqual(t, msgs, got)
	if s.AccountedLost() != 0 {
		t.Fatalf("chunked clean stream reported %d lost", s.AccountedLost())
	}
}

// TestFrameCorruptionIsQuantified flips one bit mid-stream and checks the
// decoder (a) survives, (b) accounts the exact number of missing messages
// via the cumulative counter, and (c) resumes delivering trusted messages.
func TestFrameCorruptionIsQuantified(t *testing.T) {
	msgs := genMsgs(600)
	stream, f := frameStream(msgs)

	corrupt := make([]byte, len(stream))
	copy(corrupt, stream)
	corrupt[len(stream)/2] ^= 0x10

	s := NewStreamDecoder()
	got := s.Feed(corrupt)
	s.Finalize(f.MsgsFramed)

	if s.Delivered == 0 {
		t.Fatal("nothing delivered after corruption")
	}
	if s.AccountedLost() == 0 || len(s.Gaps) == 0 {
		t.Fatal("corruption produced no gap accounting")
	}
	if s.Delivered+s.AccountedLost() != f.MsgsFramed {
		t.Fatalf("conservation violated: delivered %d + lost %d != framed %d",
			s.Delivered, s.AccountedLost(), f.MsgsFramed)
	}
	// Every delivered message must be byte-identical to an emitted one —
	// corruption may remove messages but never silently alter one.
	want := make(map[Msg]int)
	for _, m := range msgs {
		want[m]++
	}
	for _, m := range got {
		if want[m] == 0 {
			t.Fatalf("delivered message %+v was never emitted", m)
		}
		want[m]--
	}
	// The gap must be bounded: messages after the post-corruption Sync
	// re-anchors are delivered again.
	last := got[len(got)-1]
	if last.Cycle != msgs[len(msgs)-1].Cycle {
		t.Fatalf("stream did not recover to the end: last cycle %d want %d",
			last.Cycle, msgs[len(msgs)-1].Cycle)
	}
}

// TestLostFrameAccounting deletes whole frames (the DAP abandon path) and
// checks exact message-loss accounting from the cumulative counters.
func TestLostFrameAccounting(t *testing.T) {
	msgs := genMsgs(400)
	var frames [][]byte
	f := &Framer{Sink: func(frame []byte) bool {
		c := make([]byte, len(frame))
		copy(c, frame)
		frames = append(frames, c)
		return true
	}}
	var enc Encoder
	var scratch []byte
	for i := range msgs {
		scratch = enc.Encode(scratch[:0], &msgs[i])
		f.Append(scratch)
	}
	f.Flush()

	// Drop frames 3 and 4.
	var stream []byte
	var droppedMsgs uint64
	for i, fr := range frames {
		if i == 3 || i == 4 {
			droppedMsgs += countFrameMsgs(t, fr)
			continue
		}
		stream = append(stream, fr...)
	}

	s := NewStreamDecoder()
	s.Feed(stream)
	s.Finalize(f.MsgsFramed)
	if s.Lost < droppedMsgs {
		t.Fatalf("Lost = %d, want ≥ %d (the dropped frames)", s.Lost, droppedMsgs)
	}
	if s.Delivered+s.AccountedLost() != f.MsgsFramed {
		t.Fatalf("conservation violated: %d + %d != %d", s.Delivered, s.AccountedLost(), f.MsgsFramed)
	}
	if s.SeqJumps == 0 {
		t.Fatal("dropped frames did not register a sequence jump")
	}
}

func countFrameMsgs(t *testing.T, fr []byte) uint64 {
	t.Helper()
	if !ValidFrame(fr) {
		t.Fatal("test frame invalid")
	}
	var d Decoder
	ms, n, err := d.DecodeAll(fr[frameHeader : len(fr)-1])
	if err != nil || n != len(fr)-FrameOverhead {
		t.Fatalf("frame payload decode: %v", err)
	}
	return uint64(len(ms))
}

// TestFramingOverheadBound pins the documented link overhead: the frame
// layer must cost < 15 % extra bytes on a realistic message mix.
func TestFramingOverheadBound(t *testing.T) {
	msgs := genMsgs(5000)
	var enc Encoder
	var rawBytes uint64
	var scratch []byte
	f := &Framer{Sink: func([]byte) bool { return true }}
	for i := range msgs {
		scratch = enc.Encode(scratch[:0], &msgs[i])
		rawBytes += uint64(len(scratch))
		f.Append(scratch)
	}
	f.Flush()
	framed := f.BytesFramed
	overhead := float64(framed-rawBytes) / float64(rawBytes)
	if overhead >= 0.15 {
		t.Fatalf("framing overhead %.1f%% ≥ 15%% bound", overhead*100)
	}
	worst := float64(FrameOverhead) / float64(FrameOverhead+MaxFramePayload)
	if worst >= 0.15 {
		t.Fatalf("worst-case overhead %.1f%% ≥ 15%% bound", worst*100)
	}
}

// TestAppendDecodeFillsSizedOutput: a caller that sizes the output for
// the stream's messages gets them decoded into that one array, and a
// framed stream fed whole is decoded in place, nothing held back.
func TestAppendDecodeFillsSizedOutput(t *testing.T) {
	msgs := genMsgs(400)
	var enc Encoder
	var raw []byte
	for i := range msgs {
		raw = enc.Encode(raw, &msgs[i])
	}
	var dec Decoder
	out := make([]Msg, 0, len(msgs))
	got, _, err := dec.AppendAll(out, raw)
	if err != nil {
		t.Fatal(err)
	}
	msgsEqual(t, msgs, got)
	if &got[0] != &out[:1][0] {
		t.Fatal("AppendAll: output reallocated")
	}

	stream, f := frameStream(msgs)
	s := NewStreamDecoder()
	out = make([]Msg, 0, len(msgs))
	got = s.AppendFeed(out, stream)
	s.Finalize(f.MsgsFramed)
	msgsEqual(t, msgs, got)
	if &got[0] != &out[:1][0] || cap(s.buf) != 0 {
		t.Fatalf("AppendFeed: output reallocated or %d bytes held back", cap(s.buf))
	}
}
