package dap

import (
	"testing"

	"repro/internal/emem"
	"repro/internal/sim"
	"repro/internal/tmsg"
)

// fillFrames encodes n rate messages (with periodic syncs) through a
// Framer into e and returns the framer.
func fillFrames(e *emem.EMEM, n int) *tmsg.Framer {
	f := &tmsg.Framer{Sink: e.AppendTrace}
	var enc tmsg.Encoder
	var scratch []byte
	cycle := uint64(0)
	for i := 0; i < n; i++ {
		cycle += 5
		var m tmsg.Msg
		if i%20 == 0 {
			m = tmsg.Msg{Kind: tmsg.KindSync, Src: 0, Cycle: cycle, PC: 0x100}
		} else {
			m = tmsg.Msg{Kind: tmsg.KindRate, Src: 0, Cycle: cycle,
				CounterID: 1, Basis: 100, Count: uint64(i % 9)}
		}
		scratch = enc.Encode(scratch[:0], &m)
		f.Append(scratch)
	}
	f.Flush()
	return f
}

// flakyLink corrupts every transmission until attempt k, then passes.
type flakyLink struct {
	failFirst int
	attempt   int
	downUntil uint64
}

func (l *flakyLink) UpAt(cycle uint64) uint64 { return max(cycle, l.downUntil) }

func (l *flakyLink) Transmit(_ uint64, frame []byte) ([]byte, bool) {
	l.attempt++
	if l.attempt%(l.failFirst+1) != 0 {
		c := make([]byte, len(frame))
		copy(c, frame)
		c[len(c)/2] ^= 0x04
		return c, true
	}
	return frame, true
}

// TestReliableRetryRecoversEverything: a link that corrupts two of every
// three attempts still delivers every message — at the cost of NAKs and
// retransmission bandwidth.
func TestReliableRetryRecoversEverything(t *testing.T) {
	e := emem.New(1<<16, 0, 0)
	f := fillFrames(e, 400)

	d := New(100, e)
	d.Reliable = true
	d.Fault = &flakyLink{failFirst: 2}
	for cy := uint64(0); cy < 400_000 && (e.Level() > 0 || d.FramesDelivered == 0); cy++ {
		d.Tick(cy)
	}
	d.DrainAll()

	st := tmsg.NewStreamDecoder()
	msgs := st.Feed(d.Received)
	st.Finalize(f.MsgsFramed)
	if d.Retries == 0 {
		t.Fatal("flaky link produced no retries")
	}
	if uint64(len(msgs)) != f.MsgsFramed {
		t.Fatalf("delivered %d messages, want %d (retries %d, abandoned %d)",
			len(msgs), f.MsgsFramed, d.Retries, d.FramesAbandoned)
	}
	if st.AccountedLost() != 0 {
		t.Fatalf("recoverable corruption lost %d messages", st.AccountedLost())
	}
}

// TestReliableAbandonsSourceCorruption: a frame corrupted in the EMEM
// itself never passes CRC — the protocol must give up after DefaultMaxRetries and
// the tool must account the loss exactly.
func TestReliableAbandonsSourceCorruption(t *testing.T) {
	e := emem.New(1<<16, 0, 0)
	f := fillFrames(e, 300)
	// Flip one bit in the middle of the buffered frame bytes: source-level
	// corruption that retransmission cannot heal.
	e.CorruptBit(e.Level()/2, 3)

	d := New(100, e)
	d.Reliable = true
	d.DrainAll()

	st := tmsg.NewStreamDecoder()
	msgs := st.Feed(d.Received)
	st.Finalize(f.MsgsFramed)
	if d.FramesAbandoned == 0 {
		t.Fatal("source corruption was never abandoned")
	}
	if st.AccountedLost() == 0 {
		t.Fatal("abandoned frame not accounted as lost")
	}
	if uint64(len(msgs))+st.AccountedLost() != f.MsgsFramed {
		t.Fatalf("conservation violated: %d delivered + %d lost != %d framed",
			len(msgs), st.AccountedLost(), f.MsgsFramed)
	}
}

// TestStallWindowStopsDrain: while the link is down the EMEM keeps its
// content and no credit accrues (the bandwidth is lost, not deferred).
func TestStallWindowStopsDrain(t *testing.T) {
	e := emem.New(1<<16, 0, 0)
	fillFrames(e, 100)
	before := e.Level()

	d := New(100, e)
	d.Reliable = true
	d.Fault = &flakyLink{failFirst: 0, downUntil: 5_000}
	for cy := uint64(0); cy < 5_000; cy++ {
		d.Tick(cy)
	}
	if e.Level() != before || d.TotalDrained != 0 {
		t.Fatal("link drained while down")
	}
	for cy := uint64(5_000); cy < 6_000; cy++ {
		d.Tick(cy)
	}
	if d.LinkDownCycles() != 5_000 {
		t.Errorf("LinkDownCycles = %d, want 5000", d.LinkDownCycles())
	}
	// 0.08 B/cycle × 1000 cycles ≈ 80 bytes: no catch-up burst.
	if d.TotalDrained > 88 {
		t.Fatalf("drained %d bytes in 1000 cycles after stall — credit accrued while down", d.TotalDrained)
	}
}

// TestDrainPreservesStream: draining tick by tick, then flushing, must
// hand the tool exactly the bytes written — decoding what it received
// gives back every message in order.
func TestDrainPreservesStream(t *testing.T) {
	e := emem.New(1<<16, 0, 0)
	var enc tmsg.Encoder
	var scratch []byte
	var want []tmsg.Msg
	rng := sim.NewRNG(9)
	cycle := uint64(0)
	for i := 0; i < 500; i++ {
		cycle += uint64(rng.Range(1, 9))
		m := tmsg.Msg{Kind: tmsg.KindRate, Src: 0, Cycle: cycle,
			CounterID: uint8(i % 3), Basis: 50, Count: uint64(rng.Intn(50))}
		if i%40 == 0 {
			m = tmsg.Msg{Kind: tmsg.KindSync, Src: 0, Cycle: cycle, PC: uint32(i)}
		}
		scratch = enc.Encode(scratch[:0], &m)
		e.AppendTrace(scratch)
		want = append(want, m)
	}

	d := New(100, e)
	for cy := uint64(0); cy < 20_000; cy++ {
		d.Tick(cy)
	}
	if e.Level() == 0 || d.TotalDrained == 0 {
		t.Fatalf("drain did not span the run: level %d, drained %d", e.Level(), d.TotalDrained)
	}
	d.DrainAll()
	var dec tmsg.Decoder
	got, _, err := dec.DecodeAll(d.Received)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d messages, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("message %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}
