package tmsg

// Gap quantifies one detected loss region in the decoded timeline.
// Profiling windows overlapping [StartCycle, EndCycle] carry reduced
// confidence; analyses down-weight them instead of silently presenting a
// gapped profile as complete.
type Gap struct {
	StartCycle uint64 // last trusted cycle before the loss
	EndCycle   uint64 // first trusted cycle after recovery (0 while open / at stream end)
	Msgs       uint64 // messages accounted lost (frame losses + discarded un-anchored messages)
	Bytes      uint64 // garbage bytes skipped while resynchronizing
	Frames     uint64 // frames lost or rejected
}

// Open reports whether the gap extends to the end of the stream.
func (g Gap) Open() bool { return g.EndCycle == 0 }

// StreamDecoder is the hardened tool-side decoder: instead of failing
// terminally on a bad byte (the DecodeAll contract), it resynchronizes and
// reports a quantified Gap.
//
// It consumes the frame stream (tmsg.Framer) a reliable DAP delivers:
// CRC-invalid regions are scanned for the next valid frame, the cumulative
// message counter in each frame header converts every loss into an exact
// message count, and messages of a source whose delta state may be stale
// are discarded (and accounted) until that source's next Sync re-anchor.
// Unframed streams go through Decoder.DecodeAll.
type StreamDecoder struct {
	dec      Decoder
	buf      []byte
	anchored [MaxSources]bool
	lastGood uint64 // highest delivered cycle

	expectCum uint32
	expectSeq uint8
	haveSeq   bool

	// msgs is the reusable output scratch handed back by Feed: the hot
	// decode path allocates nothing once buf and msgs have warmed up.
	msgs []Msg

	gap *Gap

	// Statistics. Delivered + Skipped + Lost == total messages the stream
	// carried (after Finalize, exactly the emitter's message count).
	Delivered uint64
	Skipped   uint64 // decoded but discarded: source not re-anchored yet
	Lost      uint64 // never decoded: lost frames / corrupt regions
	Garbage   uint64 // bytes discarded while scanning for resync
	SeqJumps  uint64 // frame sequence discontinuities observed
	Resyncs   uint64 // times the decoder had to re-acquire the stream
	Gaps      []Gap
}

// NewStreamDecoder returns a decoder for a tool that attached at cycle 0
// (every source starts anchored, matching the encoder's zero state).
func NewStreamDecoder() *StreamDecoder {
	s := &StreamDecoder{}
	for i := range s.anchored {
		s.anchored[i] = true
	}
	return s
}

// AccountedLost returns every message known to be missing from the
// delivered stream.
func (s *StreamDecoder) AccountedLost() uint64 { return s.Lost + s.Skipped }

// noteLoss opens (or extends) the current gap.
func (s *StreamDecoder) noteLoss(msgs, bytes, frames uint64) {
	if s.gap == nil {
		s.Gaps = append(s.Gaps, Gap{StartCycle: s.lastGood})
		s.gap = &s.Gaps[len(s.Gaps)-1]
	}
	s.gap.Msgs += msgs
	s.gap.Bytes += bytes
	s.gap.Frames += frames
	s.Lost += msgs
	s.Garbage += bytes
}

// skip accounts one decoded-but-untrusted message.
func (s *StreamDecoder) skip() {
	if s.gap == nil {
		s.Gaps = append(s.Gaps, Gap{StartCycle: s.lastGood})
		s.gap = &s.Gaps[len(s.Gaps)-1]
	}
	s.gap.Msgs++
	s.Skipped++
}

// deliver records a trusted message and closes any open gap.
func (s *StreamDecoder) deliver(out []Msg, m Msg) []Msg {
	s.Delivered++
	if m.Cycle > s.lastGood {
		s.lastGood = m.Cycle
	}
	if s.gap != nil {
		s.gap.EndCycle = m.Cycle
		s.gap = nil
	}
	return append(out, m)
}

// unanchorAll marks every source's delta state stale.
func (s *StreamDecoder) unanchorAll() {
	for i := range s.anchored {
		s.anchored[i] = false
	}
}

// accept runs the per-source anchoring policy on one decoded message.
func (s *StreamDecoder) accept(out []Msg, m Msg) []Msg {
	switch {
	case m.Kind == KindSync:
		s.anchored[m.Src] = true
		return s.deliver(out, m)
	case m.Kind == KindOverflow:
		// Overflow markers carry no delta state; always meaningful.
		return s.deliver(out, m)
	case s.anchored[m.Src]:
		return s.deliver(out, m)
	default:
		s.skip()
		return out
	}
}

// Feed consumes newly received bytes and returns the trusted messages they
// complete. It never returns an error: corruption becomes Gaps.
//
// The returned slice is a scratch buffer owned by the decoder and is only
// valid until the next Feed call; callers that retain messages across
// feeds must copy them out (an append does).
func (s *StreamDecoder) Feed(p []byte) []Msg {
	s.msgs = s.AppendFeed(s.msgs[:0], p)
	return s.msgs
}

// AppendFeed is Feed appending the trusted messages to out: a caller that
// knows how many messages the stream carries sizes out once.
func (s *StreamDecoder) AppendFeed(out []Msg, p []byte) []Msg {
	// Only a held-back tail is joined with the new bytes; the rest of the
	// input is decoded in place.
	buf := p
	if len(s.buf) > 0 {
		s.buf = append(s.buf, p...)
		buf = s.buf
	}
	i := 0
	for {
		skip, n := NextFrame(buf[i:])
		s.noteLossBytes(skip)
		i += skip
		if n == 0 {
			break // wait for more bytes
		}
		f := buf[i : i+n]
		if !ValidFrame(f) {
			// Corrupt frame or false marker — advance one byte; the
			// cumulative counter of the next valid frame quantifies
			// whatever was lost here.
			s.noteLossBytes(1)
			i++
			continue
		}
		i += n
		out = s.frame(out, f)
	}
	s.buf = append(s.buf[:0], buf[i:]...)
	return out
}

// noteLossBytes accounts garbage without opening a gap prematurely for a
// merely-incomplete tail: callers only pass definitively skipped bytes.
func (s *StreamDecoder) noteLossBytes(n int) {
	if n <= 0 {
		return
	}
	s.noteLoss(0, uint64(n), 0)
	s.unanchorAll()
}

// frame processes one CRC-valid frame.
func (s *StreamDecoder) frame(out []Msg, f []byte) []Msg {
	seq := f[1]
	n := int(f[2])
	cum := uint32(f[3]) | uint32(f[4])<<8 | uint32(f[5])<<16 | uint32(f[6])<<24
	payload := f[frameHeader : frameHeader+n]

	if s.haveSeq && seq != s.expectSeq {
		s.SeqJumps++
	}
	s.expectSeq = seq + 1
	s.haveSeq = true

	if cum != s.expectCum {
		// The header counter tells us exactly how many messages vanished
		// between the last frame we trusted and this one.
		lost := uint64(cum - s.expectCum) // mod-2³² distance
		s.noteLoss(lost, 0, 1)
		s.expectCum = cum
		s.unanchorAll()
		s.Resyncs++
	}

	off := 0
	for off < n {
		m, k, err := s.dec.Decode(payload[off:])
		if err != nil {
			// A CRC-valid frame whose payload does not parse means the
			// encoder and decoder disagree — treat the remainder as lost
			// bytes; the next frame's counter restores exact accounting.
			s.noteLoss(0, uint64(n-off), 0)
			s.unanchorAll()
			break
		}
		off += k
		s.expectCum++
		out = s.accept(out, m)
	}
	return out
}

// Finalize closes the books at end of stream: total is the emitter's
// message count (Framer.MsgsFramed); any messages the decoder never heard
// about — frames still in flight or abandoned at the very end — are added
// to Lost so that total == Delivered + Skipped + Lost holds exactly.
// Any open gap is left open (EndCycle 0 = extends to end of run).
func (s *StreamDecoder) Finalize(total uint64) {
	tail := uint64(uint32(total) - s.expectCum) // mod-2³² distance
	if tail > 0 {
		s.noteLoss(tail, uint64(len(s.buf)), 0)
		s.buf = s.buf[:0]
		s.expectCum = uint32(total)
	}
}
