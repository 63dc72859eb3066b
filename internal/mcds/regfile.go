package mcds

import (
	"repro/internal/bus"
)

// Register-file layout (word registers, offsets from the mapped base).
// This is the ECerberus/Back-Bone-Bus access path of the paper's Figure 4:
// besides the DAP, "it is however also possible to access the EEC from the
// TriCore on the product chip part over the MLI bridge. This means that in
// a later development phase a tool can communicate over a user interface
// like CAN or FlexRay with a monitor routine, running on TriCore, which
// then accesses the EEC."
const (
	RegID          = 0x00 // identification word
	RegMsgCount    = 0x04 // messages emitted (low 32 bits)
	RegMsgLost     = 0x08 // messages lost to overflow
	RegTraceLevel  = 0x0C // bytes currently buffered in the EMEM trace ring
	RegCounterBase = 0x10 // per-counter blocks of 16 bytes follow
	// Per-counter block offsets:
	regCtrl       = 0x0 // bit0: enabled (r/w)
	regTotal      = 0x4 // total source events since configuration (low 32 bits)
	regCount      = 0x8 // current window event count
	regBasis      = 0xC // current window basis count
	counterStride = 0x10
)

// RegFileID is the value read from RegID.
const RegFileID = 0x4D43_4453 // "MCDS"

// RegFile exposes the MCDS state as a bus target so on-chip software (a
// monitor routine) or the debug bus master can read counters and arm or
// disarm them at run time.
type RegFile struct {
	m    *MCDS
	base uint32

	Reads  uint64
	Writes uint64
}

// RegFile returns the memory-mapped view of the MCDS based at base. A bus
// master reads it mid-cycle and must see the values as of the previous
// cycle, which only a tick on every cycle keeps: the MCDS stops sleeping.
func (m *MCDS) RegFile(base uint32) *RegFile {
	m.pin()
	return &RegFile{m: m, base: base}
}

// Size returns the size of the register window in bytes.
func (rf *RegFile) Size() uint32 {
	return RegCounterBase + uint32(len(rf.m.counters))*counterStride
}

// Name implements bus.Target.
func (rf *RegFile) Name() string { return "mcds.regs" }

// Access implements bus.Target.
func (rf *RegFile) Access(_ uint64, req *bus.Request) uint64 {
	off := req.Addr - rf.base
	if req.Write {
		rf.Writes++
		rf.write(off, get32(req.Data))
	} else {
		rf.Reads++
		put32(req.Data, rf.read(off))
	}
	return 2 // Back Bone Bus register access latency
}

func (rf *RegFile) read(off uint32) uint32 {
	switch off {
	case RegID:
		return RegFileID
	case RegMsgCount:
		return uint32(rf.m.MsgsEmitted)
	case RegMsgLost:
		return uint32(rf.m.MsgsLost)
	case RegTraceLevel:
		if rf.m.Sink == nil {
			return 0
		}
		return rf.m.Sink.Level()
	}
	if off >= RegCounterBase {
		i := int(off-RegCounterBase) / counterStride
		if i >= len(rf.m.counters) {
			return 0
		}
		c := rf.m.counters[i]
		count, basis := c.window()
		switch (off - RegCounterBase) % counterStride {
		case regCtrl:
			if c.Enabled() {
				return 1
			}
			return 0
		case regTotal:
			return uint32(c.TotalSrc())
		case regCount:
			return uint32(count)
		case regBasis:
			return uint32(basis)
		}
	}
	return 0
}

func (rf *RegFile) write(off uint32, v uint32) {
	if off < RegCounterBase {
		return // global registers are read-only
	}
	i := int(off-RegCounterBase) / counterStride
	if i >= len(rf.m.counters) {
		return
	}
	if (off-RegCounterBase)%counterStride == regCtrl {
		// Bit 0 arms (resetting the window) or disarms, like the trigger
		// actions.
		a := Action{Kind: ActDisableCounter, Counter: rf.m.counters[i]}
		if v&1 != 0 {
			a.Kind = ActEnableCounter
		}
		rf.m.apply(a, 0)
	}
}

func put32(p []byte, v uint32) {
	for i := range p {
		p[i] = byte(v >> (8 * uint(i)))
	}
}

func get32(p []byte) uint32 {
	var v uint32
	for i := range p {
		v |= uint32(p[i]) << (8 * uint(i))
	}
	return v
}
