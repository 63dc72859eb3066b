package mcds

import (
	"testing"

	"repro/internal/emem"
	"repro/internal/tmsg"
)

// TestOverflowReanchorInvariant pins the overflow protocol at the message
// level: after any AppendTrace drop, the stream must carry a KindOverflow
// marker (with an exact Lost count) before normal traffic resumes, and
// each source must re-anchor with a KindSync before its first post-loss
// message — otherwise the tool-side delta decoder silently produces wrong
// cycles. The schedule overflows the ring twice with a partial drain in
// between, so the second round runs on a wrapped ring (head < tail).
func TestOverflowReanchorInvariant(t *testing.T) {
	const capacity = 96
	tiny := emem.New(capacity, 0, 0)
	m := New(tiny)

	var mirror []tmsg.Msg
	m.OnEmit = func(msg *tmsg.Msg) { mirror = append(mirror, *msg) }

	var received []byte
	drain := func(n uint32) { received = append(received, tiny.Drain(n)...) }

	cycle := uint64(10)
	emitRate := func(src uint8) {
		cycle += 100
		msg := tmsg.Msg{Kind: tmsg.KindRate, Src: src, Cycle: cycle,
			CounterID: 1, Basis: 100, Count: cycle % 7}
		m.emit(&msg)
	}

	// Anchor two sources, then drive both until the ring drops messages;
	// partially drain (the ring wraps) and resume; repeat.
	m.emit(&tmsg.Msg{Kind: tmsg.KindSync, Src: 0, Cycle: cycle, PC: 0x100})
	m.emit(&tmsg.Msg{Kind: tmsg.KindSync, Src: 1, Cycle: cycle, PC: 0x200})
	for round := 0; round < 2; round++ {
		lostBefore := m.MsgsLost
		for i := 0; m.MsgsLost == lostBefore; i++ {
			emitRate(uint8(i % 2))
			if i > 1000 {
				t.Fatal("ring never overflowed")
			}
		}
		drain(capacity / 2)
		for i := 0; i < 4; i++ { // resume: both sources emit again
			emitRate(uint8(i % 2))
		}
	}
	drain(tiny.Level())

	if tiny.BytesWritten <= capacity {
		t.Fatalf("ring never wrapped: %d bytes written into %d-byte ring",
			tiny.BytesWritten, capacity)
	}
	if m.pendingLost != 0 {
		t.Fatalf("loss not reported: pendingLost = %d after resume", m.pendingLost)
	}

	var dec tmsg.Decoder
	msgs, _, err := dec.DecodeAll(received)
	if err != nil {
		t.Fatalf("decode after overflow: %v", err)
	}

	// The decoded stream must match the emitter's ground-truth mirror
	// exactly — same messages, same order, same absolute cycles — proving
	// the decoder never desynchronized across either loss.
	if len(msgs) != len(mirror) {
		t.Fatalf("decoded %d messages, mirror has %d", len(msgs), len(mirror))
	}
	for i := range mirror {
		got := msgs[i]
		if got.Kind == tmsg.KindOverflow {
			// Overflow carries no timestamp on the wire; the decoder stamps
			// it with the source's running cycle.
			got.Cycle = mirror[i].Cycle
		}
		if got != mirror[i] {
			t.Fatalf("message %d: decoded %+v, emitted %+v", i, msgs[i], mirror[i])
		}
	}

	// Walk the stream and enforce the protocol ordering: after an Overflow
	// marker no source may emit before its re-anchoring Sync.
	var needSync [tmsg.MaxSources]bool
	var overflows int
	var reportedLost uint64
	for i, msg := range msgs {
		switch msg.Kind {
		case tmsg.KindOverflow:
			if msg.Lost == 0 {
				t.Fatalf("message %d: overflow marker with Lost = 0", i)
			}
			overflows++
			reportedLost += msg.Lost
			for s := range needSync {
				needSync[s] = true
			}
		case tmsg.KindSync:
			needSync[msg.Src] = false
		default:
			if needSync[msg.Src] {
				t.Fatalf("message %d: %v from src %d before its post-overflow Sync",
					i, msg.Kind, msg.Src)
			}
		}
	}
	if overflows < 2 {
		t.Fatalf("saw %d overflow markers, want one per round (2)", overflows)
	}
	if reportedLost != m.MsgsLost {
		t.Fatalf("overflow markers report %d lost, MCDS counted %d",
			reportedLost, m.MsgsLost)
	}

	// The per-source and Sync counts agree with the stored stream.
	var bySrc [tmsg.MaxSources]uint64
	var syncs uint64
	for _, msg := range mirror {
		bySrc[msg.Src]++
		if msg.Kind == tmsg.KindSync {
			syncs++
		}
	}
	if bySrc != m.SrcMsgs || syncs != m.Reanchors || syncs <= 2 {
		t.Errorf("SrcMsgs %v, Reanchors %d; the stream has %v and %d Syncs (more than the first 2)",
			m.SrcMsgs, m.Reanchors, bySrc, syncs)
	}
}

// TestFramedOverflowIsQuantified checks the framed path end to end at unit
// level: frames refused by a full ring surface on the tool side as an exact
// cumulative-counter gap, and the conservation invariant
// framed == delivered + accounted-lost holds.
func TestFramedOverflowIsQuantified(t *testing.T) {
	tiny := emem.New(256, 0, 0)
	m := New(tiny)
	m.EnableFraming()

	var received []byte
	cycle := uint64(0)
	m.emit(&tmsg.Msg{Kind: tmsg.KindSync, Src: 0, Cycle: cycle, PC: 0x100})
	for i := 0; i < 300; i++ {
		cycle += 50
		m.emit(&tmsg.Msg{Kind: tmsg.KindRate, Src: 0, Cycle: cycle,
			CounterID: 2, Basis: 64, Count: uint64(i % 5)})
		if i%60 == 59 { // slow tool: drains far less than is produced
			received = append(received, tiny.Drain(64)...)
		}
	}
	m.FlushTrace()
	received = append(received, tiny.Drain(tiny.Level())...)

	f := m.Framer()
	if f.FramesDropped == 0 {
		t.Fatal("schedule never overflowed the ring")
	}

	st := tmsg.NewStreamDecoder()
	msgs := st.Feed(received)
	st.Finalize(f.MsgsFramed)
	if got := uint64(len(msgs)) + st.AccountedLost(); got != f.MsgsFramed {
		t.Fatalf("conservation violated: %d delivered + %d lost != %d framed",
			len(msgs), st.AccountedLost(), f.MsgsFramed)
	}
	if st.AccountedLost() == 0 {
		t.Fatal("refused frames were not accounted as lost")
	}
}
