package tmsg

import "bytes"

// Frame layer: the hardened tool-link format. Encoded messages are grouped
// into fixed-overhead frames so that corruption on the DAP link or a soft
// error in the EMEM trace ring is *detected* (CRC), *quantified* (the
// cumulative message counter tells the tool exactly how many messages a
// lost frame carried) and *recoverable* (frames start at message
// boundaries, so the byte stream realigns at the next valid frame).
//
// Wire layout (FrameOverhead = 8 bytes):
//
//	offset 0    marker (0xA5)
//	offset 1    seq — frame counter mod 256 (link-level loss telltale)
//	offset 2    payload length N, 1..MaxFramePayload
//	offset 3..6 cumulative message count before this frame, uint32 LE
//	offset 7..  payload: whole encoded messages (never split)
//	last byte   CRC-8/AUTOSAR over bytes 1..7+N-1 (everything but the marker)
//
// With MaxFramePayload = 96 the worst-case framing overhead is
// 8/104 ≈ 7.7 % of the link bytes and stays below 10 % on realistic
// message mixes (internal fragmentation costs a little extra because
// messages are never split across frames).

// FrameMarker starts every frame.
const FrameMarker = 0xA5

// MaxFramePayload is the payload capacity of one frame. It must exceed the
// largest possible encoded message (a Rate message with four maximum-length
// varints, < 45 bytes).
const MaxFramePayload = 96

// FrameOverhead is the fixed per-frame byte cost (marker, seq, length,
// cumulative count, CRC).
const FrameOverhead = 8

// frameHeader is the byte offset of the payload (everything before it is
// marker + seq + length + cumulative count; the CRC trails the payload).
const frameHeader = 7

// crc8 computes CRC-8/AUTOSAR (poly 0x2F, init 0xFF, xorout 0xFF) — the
// automotive profile checksum, small enough for the frame builder in the
// EEC and strong enough to catch every single- and double-bit error within
// a 64-byte frame. One table lookup per byte.
func crc8(b []byte) byte {
	c := byte(0xFF)
	for _, x := range b {
		c = crc8Table[c^x]
	}
	return c ^ 0xFF
}

// crc8Table[i] is the register after shifting byte i through the
// polynomial 0x2F bit by bit.
var crc8Table = func() (t [256]byte) {
	for i := range t {
		c := byte(i)
		for k := 0; k < 8; k++ {
			if c&0x80 != 0 {
				c = c<<1 ^ 0x2F
			} else {
				c <<= 1
			}
		}
		t[i] = c
	}
	return t
}()

// ValidFrame reports whether b is one complete, uncorrupted frame.
func ValidFrame(b []byte) bool {
	if len(b) < FrameOverhead+1 || b[0] != FrameMarker {
		return false
	}
	n := int(b[2])
	if n == 0 || n > MaxFramePayload || len(b) != FrameOverhead+n {
		return false
	}
	return crc8(b[1:len(b)-1]) == b[len(b)-1]
}

// FrameLen returns the total length of the frame starting at b[0], or 0
// when the header is implausible, or -1 when more bytes are needed to
// tell. It does not verify the CRC.
func FrameLen(b []byte) int {
	if len(b) == 0 || b[0] != FrameMarker {
		return 0
	}
	if len(b) < 3 {
		return -1
	}
	n := int(b[2])
	if n == 0 || n > MaxFramePayload {
		return 0
	}
	return FrameOverhead + n
}

// NextFrame hunts b for the next frame: it skips to a marker, and skips
// one false-marker byte at a time where the header is implausible. It
// returns the garbage bytes skipped and the length n of the frame at
// b[skip:], or n = 0 when no complete frame is there yet (more bytes
// may complete one). It does not verify the CRC.
func NextFrame(b []byte) (skip, n int) {
	for {
		i := bytes.IndexByte(b[skip:], FrameMarker)
		if i < 0 {
			return len(b), 0
		}
		skip += i
		switch n = FrameLen(b[skip:]); {
		case n == 0:
			skip++ // a payload byte that happens to be the marker
		case n < 0 || n > len(b)-skip:
			return skip, 0 // header or frame incomplete
		default:
			return skip, n
		}
	}
}

// Framer packs encoded messages into frames and hands each completed frame
// to Sink. It is the emitter-side half of the hardened link; the tool-side
// half is StreamDecoder in framed mode.
type Framer struct {
	// Sink stores one completed frame; it returns false when the frame was
	// dropped (trace buffer full). A nil Sink accepts everything (pure
	// bandwidth accounting).
	Sink func(frame []byte) bool

	payload []byte
	count   uint64
	frame   []byte
	seq     uint8
	cum     uint32 // messages in all earlier frames, delivered or not

	// Statistics.
	FramesOut     uint64 // frames accepted by Sink
	FramesDropped uint64 // frames Sink refused
	MsgsFramed    uint64 // messages appended (== the final cumulative count)
	MsgsDropped   uint64 // messages inside refused frames
	BytesFramed   uint64 // frame bytes accepted by Sink, overhead included
}

// Append adds one encoded message to the current frame, flushing first
// when it would not fit. It returns the number of previously appended
// messages that were lost because the flushed frame was refused by Sink
// (0 on the happy path). The message itself is always accepted — its fate
// is decided when its own frame flushes.
func (f *Framer) Append(msg []byte) (dropped uint64) {
	if len(msg) > MaxFramePayload {
		panic("tmsg: message larger than frame payload")
	}
	if len(f.payload)+len(msg) > MaxFramePayload {
		dropped = f.Flush()
	}
	f.payload = append(f.payload, msg...)
	f.count++
	f.MsgsFramed++
	return dropped
}

// Flush emits the buffered messages as one frame (no-op when empty). It
// returns the number of messages lost because Sink refused the frame.
func (f *Framer) Flush() (dropped uint64) {
	if f.count == 0 {
		return 0
	}
	f.frame = f.frame[:0]
	f.frame = append(f.frame, FrameMarker, f.seq, byte(len(f.payload)),
		byte(f.cum), byte(f.cum>>8), byte(f.cum>>16), byte(f.cum>>24))
	f.frame = append(f.frame, f.payload...)
	f.frame = append(f.frame, crc8(f.frame[1:]))

	// The sequence and cumulative counters advance whether or not the sink
	// accepts the frame: the receiver detects a refused (overflowed) frame
	// exactly like a frame lost on the link, through the counter jump.
	f.seq++
	f.cum += uint32(f.count)
	count := f.count
	f.payload = f.payload[:0]
	f.count = 0

	if f.Sink != nil && !f.Sink(f.frame) {
		f.FramesDropped++
		f.MsgsDropped += count
		return count
	}
	f.FramesOut++
	f.BytesFramed += uint64(len(f.frame))
	return 0
}
