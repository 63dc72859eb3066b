package tmsg

import "testing"

// The trace hot path must not allocate: every simulated cycle can emit
// messages, and a single byte of per-message garbage turns into GC pauses
// at fleet scale. These gates pin the contract for the encoder, the
// stream-decoder feed path, and (in internal/mcds) the emit path.

func TestEncodeZeroAlloc(t *testing.T) {
	var enc Encoder
	buf := make([]byte, 0, 64)
	msgs := []Msg{
		{Kind: KindSync, Src: 1, Cycle: 5000, PC: 0x8000_0000},
		{Kind: KindRate, Src: 2, Cycle: 6000, CounterID: 3, Basis: 1000, Count: 42},
		{Kind: KindFlow, Src: 0, Cycle: 6100, PC: 0x8000_0040, ICount: 16},
		{Kind: KindData, Src: 0, Cycle: 6200, Addr: 0xD000_0010, Data: 0xDEAD, Write: true},
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		m := &msgs[i%len(msgs)]
		i++
		buf = enc.Encode(buf[:0], m)
	})
	if allocs != 0 {
		t.Errorf("Encoder.Encode allocates %.1f objects/op, want 0", allocs)
	}
}

// buildFrames encodes n rate messages into individually captured frames.
func buildFrames(n int) (*Framer, [][]byte) {
	var frames [][]byte
	f := &Framer{Sink: func(fr []byte) bool {
		frames = append(frames, append([]byte(nil), fr...))
		return true
	}}
	var enc Encoder
	var buf []byte
	m := Msg{Kind: KindRate, Src: 1, CounterID: 2, Basis: 1000}
	for i := 0; i < n; i++ {
		m.Cycle += 1000
		m.Count = uint64(i % 50)
		buf = enc.Encode(buf[:0], &m)
		f.Append(buf)
	}
	f.Flush()
	return f, frames
}

func TestStreamDecoderFeedZeroAlloc(t *testing.T) {
	_, frames := buildFrames(20_000)
	if len(frames) < 64 {
		t.Fatalf("only %d frames", len(frames))
	}
	s := NewStreamDecoder()
	// Warm-up: let buf and the msgs scratch reach steady-state capacity.
	warm := len(frames) / 2
	for _, fr := range frames[:warm] {
		if s.Feed(fr) == nil {
			t.Fatal("warm-up frame delivered nothing")
		}
	}
	i := warm
	allocs := testing.AllocsPerRun(len(frames)-warm-1, func() {
		s.Feed(frames[i])
		i++
	})
	if allocs != 0 {
		t.Errorf("StreamDecoder.Feed allocates %.1f objects/op on the clean path, want 0", allocs)
	}
	if s.Lost != 0 || s.Skipped != 0 || len(s.Gaps) != 0 {
		t.Errorf("clean stream produced losses: lost=%d skipped=%d gaps=%d",
			s.Lost, s.Skipped, len(s.Gaps))
	}
}

func TestFeedReturnValidUntilNextFeed(t *testing.T) {
	// The documented aliasing contract: Feed's return is scratch. Two
	// consecutive feeds must not require the first result after the second
	// call, and copying via append keeps callers safe.
	_, frames := buildFrames(300)
	s := NewStreamDecoder()
	var all []Msg
	for _, fr := range frames {
		all = append(all, s.Feed(fr)...)
	}
	if uint64(len(all)) != s.Delivered {
		t.Fatalf("copied %d, delivered %d", len(all), s.Delivered)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Cycle < all[i-1].Cycle {
			t.Fatalf("message %d out of order after scratch reuse", i)
		}
	}
}
