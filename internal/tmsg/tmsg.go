// Package tmsg defines the compressed trace message formats the MCDS
// writes into the Emulation Memory and the tool-side decoder that
// reconstructs the event stream. The formats implement the paper's
// bandwidth argument: "instead of sampling by the external tool at least
// two long counters (executed instructions, measured event, etc.) only a
// single trace message with the counted events is stored."
//
// Messages are byte-aligned and self-delimiting: a kind byte (carrying the
// source id) followed by LEB128 varints. Timestamps and flow targets are
// delta-encoded against per-source decoder state; a Sync message carries
// absolute values and re-anchors the state (emitted periodically and after
// any buffer overflow, so a drop never desynchronizes the stream).
package tmsg

import (
	"errors"
	"fmt"
)

// Kind identifies a message type.
type Kind uint8

// Message kinds.
const (
	KindSync     Kind = iota // absolute PC + absolute cycle (re-anchor)
	KindFlow                 // change of flow: instr count, target, cycle delta
	KindData                 // data access: addr, value, r/w, cycle delta
	KindRate                 // counter window: id, basis count, event count, cycle delta
	KindTrigger              // trigger fired: id, cycle delta
	KindOverflow             // messages lost: count
	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindSync:
		return "sync"
	case KindFlow:
		return "flow"
	case KindData:
		return "data"
	case KindRate:
		return "rate"
	case KindTrigger:
		return "trigger"
	case KindOverflow:
		return "overflow"
	}
	return "kind-unknown"
}

// MaxSources is the number of distinguishable trace sources (cores, bus
// observation blocks) in one stream.
const MaxSources = 8

// Msg is one decoded trace message. Cycle is always absolute after
// decoding.
type Msg struct {
	Kind  Kind
	Src   uint8 // source id (observation block)
	Cycle uint64

	// KindSync, KindFlow
	PC     uint32 // sync: anchor PC; flow: flow target
	ICount uint64 // flow: sequentially executed instructions since last flow/sync

	// KindData
	Addr  uint32
	Data  uint32
	Write bool

	// KindRate
	CounterID uint8
	Basis     uint64 // basis events actually elapsed in the window
	Count     uint64 // measured events in the window

	// KindTrigger
	TriggerID uint8

	// KindOverflow
	Lost uint64
}

// appendUvarint encodes v as LEB128.
func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// appendVarint zig-zag encodes a signed value.
func appendVarint(b []byte, v int64) []byte {
	return appendUvarint(b, uint64(v<<1)^uint64(v>>63))
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	var s uint
	for i, x := range b {
		if x < 0x80 {
			if i > 9 || i == 9 && x > 1 {
				return 0, -1
			}
			return v | uint64(x)<<s, i + 1
		}
		v |= uint64(x&0x7F) << s
		s += 7
	}
	return 0, 0
}

func varint(b []byte) (int64, int) {
	u, n := uvarint(b)
	return int64(u>>1) ^ -int64(u&1), n
}

type srcState struct {
	cycle  uint64
	target uint32
}

// Encoder compresses messages into bytes. Its delta state must be mirrored
// by exactly one Decoder consuming the stream in order.
type Encoder struct {
	st [MaxSources]srcState
}

// Encode appends the wire form of m to dst and returns the extended slice.
// Cycle must be non-decreasing per source.
func (e *Encoder) Encode(dst []byte, m *Msg) []byte {
	if m.Src >= MaxSources {
		panic(fmt.Sprintf("tmsg: source id %d out of range", m.Src))
	}
	st := &e.st[m.Src]
	head := byte(m.Kind)<<3 | m.Src
	if m.Kind == KindData && m.Write {
		head |= 0x40
	}
	dst = append(dst, head)

	switch m.Kind {
	case KindSync:
		dst = appendUvarint(dst, m.Cycle)
		dst = appendUvarint(dst, uint64(m.PC))
		st.cycle = m.Cycle
		st.target = m.PC
	case KindFlow:
		dst = appendUvarint(dst, m.Cycle-st.cycle)
		dst = appendUvarint(dst, m.ICount)
		dst = appendVarint(dst, int64(int32(m.PC-st.target)))
		st.cycle = m.Cycle
		st.target = m.PC
	case KindData:
		dst = appendUvarint(dst, m.Cycle-st.cycle)
		dst = appendUvarint(dst, uint64(m.Addr))
		dst = appendUvarint(dst, uint64(m.Data))
		st.cycle = m.Cycle
	case KindRate:
		dst = append(dst, m.CounterID)
		dst = appendUvarint(dst, m.Cycle-st.cycle)
		dst = appendUvarint(dst, m.Basis)
		dst = appendUvarint(dst, m.Count)
		st.cycle = m.Cycle
	case KindTrigger:
		dst = append(dst, m.TriggerID)
		dst = appendUvarint(dst, m.Cycle-st.cycle)
		st.cycle = m.Cycle
	case KindOverflow:
		dst = appendUvarint(dst, m.Lost)
	default:
		panic(fmt.Sprintf("tmsg: cannot encode kind %v", m.Kind))
	}
	return dst
}

// Decoder reconstructs messages from the byte stream produced by one
// Encoder.
type Decoder struct {
	st [MaxSources]srcState
}

// ErrTruncated is returned when the buffer ends inside a message; feed
// more bytes and retry from the reported offset.
var ErrTruncated = errors.New("tmsg: truncated message")

// Decode parses one message from b, returning the message and the number
// of bytes consumed.
func (d *Decoder) Decode(b []byte) (Msg, int, error) {
	if len(b) == 0 {
		return Msg{}, 0, ErrTruncated
	}
	head := b[0]
	kind := Kind(head >> 3 & 0x7)
	if kind >= numKinds {
		return Msg{}, 0, fmt.Errorf("tmsg: bad kind byte %#x", head)
	}
	m := Msg{Kind: kind, Src: head & 0x7, Write: head&0x40 != 0}
	st := &d.st[m.Src]
	p := b[1:]
	n := 1

	get := func() (uint64, bool) {
		v, k := uvarint(p)
		if k <= 0 {
			return 0, false
		}
		p = p[k:]
		n += k
		return v, true
	}
	getS := func() (int64, bool) {
		v, k := varint(p)
		if k <= 0 {
			return 0, false
		}
		p = p[k:]
		n += k
		return v, true
	}

	switch kind {
	case KindSync:
		cy, ok1 := get()
		pc, ok2 := get()
		if !ok1 || !ok2 {
			return Msg{}, 0, ErrTruncated
		}
		m.Cycle, m.PC = cy, uint32(pc)
		st.cycle, st.target = m.Cycle, m.PC
	case KindFlow:
		dc, ok1 := get()
		ic, ok2 := get()
		dt, ok3 := getS()
		if !ok1 || !ok2 || !ok3 {
			return Msg{}, 0, ErrTruncated
		}
		m.Cycle = st.cycle + dc
		m.ICount = ic
		m.PC = st.target + uint32(int32(dt))
		st.cycle, st.target = m.Cycle, m.PC
	case KindData:
		dc, ok1 := get()
		ad, ok2 := get()
		da, ok3 := get()
		if !ok1 || !ok2 || !ok3 {
			return Msg{}, 0, ErrTruncated
		}
		m.Cycle = st.cycle + dc
		m.Addr, m.Data = uint32(ad), uint32(da)
		st.cycle = m.Cycle
	case KindRate:
		if len(p) < 1 {
			return Msg{}, 0, ErrTruncated
		}
		m.CounterID = p[0]
		p = p[1:]
		n++
		dc, ok1 := get()
		ba, ok2 := get()
		ct, ok3 := get()
		if !ok1 || !ok2 || !ok3 {
			return Msg{}, 0, ErrTruncated
		}
		m.Cycle = st.cycle + dc
		m.Basis, m.Count = ba, ct
		st.cycle = m.Cycle
	case KindTrigger:
		if len(p) < 1 {
			return Msg{}, 0, ErrTruncated
		}
		m.TriggerID = p[0]
		p = p[1:]
		n++
		dc, ok := get()
		if !ok {
			return Msg{}, 0, ErrTruncated
		}
		m.Cycle = st.cycle + dc
		st.cycle = m.Cycle
	case KindOverflow:
		lost, ok := get()
		if !ok {
			return Msg{}, 0, ErrTruncated
		}
		m.Lost = lost
		m.Cycle = st.cycle
	}
	return m, n, nil
}

// DecodeAll parses every complete message in b and returns them with the
// number of bytes consumed (trailing partial messages are left).
func (d *Decoder) DecodeAll(b []byte) ([]Msg, int, error) { return d.AppendAll(nil, b) }

// AppendAll is DecodeAll appending to out: a caller that knows how many
// messages b carries sizes out once.
func (d *Decoder) AppendAll(out []Msg, b []byte) ([]Msg, int, error) {
	off := 0
	for off < len(b) {
		m, n, err := d.Decode(b[off:])
		if err == ErrTruncated {
			break
		}
		if err != nil {
			return out, off, err
		}
		out = append(out, m)
		off += n
	}
	return out, off, nil
}
