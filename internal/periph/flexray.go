package periph

import (
	"repro/internal/bus"
	"repro/internal/irq"
	"repro/internal/sim"
)

// FlexRayNode models a time-triggered communication controller in the
// spirit of FlexRay's static segment: the communication cycle is divided
// into equal slots; designated receive slots deliver a frame from the
// (synthetic) remote nodes, and one transmit slot sends whatever software
// placed in the TX register. The paper names FlexRay, alongside CAN, as
// the user interface a monitor routine reports over in the late
// development phase.
//
// Register map (offsets per the shared periph constants):
//
//	RegStatus  current slot number (read)
//	RegResult  pop the oldest received frame word (read)
//	RegID      fill level of the receive buffer (read)
//	RegPeriod  TX register (write); transmitted in the next own slot
type FlexRayNode struct {
	Label     string
	Base      uint32
	CycleLen  uint64 // communication cycle length in CPU cycles
	NumSlots  int
	RxSlots   []int // slots in which remote frames arrive
	TxSlot    int   // our transmit slot
	FIFODepth int
	Enabled   bool

	rng    *sim.RNG
	router *irq.Router
	srn    *irq.SRN // raised per received frame

	fifo     []uint32
	txData   uint32
	txArmed  bool
	lastSlot int

	// Statistics.
	RxFrames uint64
	TxFrames uint64
	Dropped  uint64
}

// NewFlexRay creates a node. The SRN is raised once per received frame.
func NewFlexRay(name string, base uint32, cycleLen uint64, numSlots int,
	rxSlots []int, txSlot int, depth int, rng *sim.RNG, router *irq.Router, srn *irq.SRN) *FlexRayNode {
	if cycleLen == 0 || numSlots <= 0 || depth <= 0 {
		panic("periph: bad FlexRay parameters")
	}
	if uint64(numSlots) > cycleLen {
		panic("periph: more slots than cycles")
	}
	for _, s := range append(append([]int(nil), rxSlots...), txSlot) {
		if s < 0 || s >= numSlots {
			panic("periph: slot out of schedule")
		}
	}
	return &FlexRayNode{Label: name, Base: base, CycleLen: cycleLen,
		NumSlots: numSlots, RxSlots: rxSlots, TxSlot: txSlot, FIFODepth: depth,
		Enabled: true, rng: rng, router: router, srn: srn, lastSlot: -1}
}

// Name implements bus.Target.
func (f *FlexRayNode) Name() string { return f.Label }

// Slot returns the static-segment slot active at the given cycle.
func (f *FlexRayNode) Slot(cycle uint64) int {
	pos := cycle % f.CycleLen
	return int(pos * uint64(f.NumSlots) / f.CycleLen)
}

// NextWake implements sim.Sleeper: the next slot-boundary cycle. Tick is a
// no-op inside a slot (slot == lastSlot), so only boundary cycles matter;
// lastSlot — and with it the RegStatus readback — advances on exactly the
// same cycles as when every cycle is dispatched.
func (f *FlexRayNode) NextWake(from uint64) uint64 {
	if !f.Enabled {
		return sim.NoWake
	}
	pos := from % f.CycleLen
	slot := int(pos * uint64(f.NumSlots) / f.CycleLen)
	if slot != f.lastSlot {
		return from
	}
	// First cycle of slot+1: ceil((slot+1)*CycleLen/NumSlots), wrapping to
	// the next communication cycle after the last slot.
	if slot == f.NumSlots-1 {
		return from - pos + f.CycleLen
	}
	n := uint64(slot+1) * f.CycleLen
	next := n / uint64(f.NumSlots)
	if n%uint64(f.NumSlots) != 0 {
		next++
	}
	return from - pos + next
}

// Tick implements sim.Ticker: deliver/transmit on slot boundaries.
func (f *FlexRayNode) Tick(cycle uint64) {
	if !f.Enabled {
		return
	}
	slot := f.Slot(cycle)
	if slot == f.lastSlot {
		return
	}
	f.lastSlot = slot
	for _, rx := range f.RxSlots {
		if slot == rx {
			frame := uint32(f.rng.Uint64())
			if len(f.fifo) >= f.FIFODepth {
				f.Dropped++
			} else {
				f.fifo = append(f.fifo, frame)
				f.RxFrames++
				f.router.Request(f.srn)
			}
			return
		}
	}
	if slot == f.TxSlot && f.txArmed {
		f.TxFrames++
		f.txArmed = false
	}
}

// Access implements bus.Target.
func (f *FlexRayNode) Access(_ uint64, req *bus.Request) uint64 {
	off := req.Addr - f.Base
	switch off {
	case RegStatus:
		if !req.Write {
			put32(req.Data, uint32(f.lastSlot))
		}
	case RegID:
		if !req.Write {
			put32(req.Data, uint32(len(f.fifo)))
		}
	case RegResult:
		if !req.Write {
			if len(f.fifo) > 0 {
				put32(req.Data, f.fifo[0])
				f.fifo = f.fifo[1:]
			} else {
				zero(req.Data)
			}
		}
	case RegPeriod: // TX register
		if req.Write {
			f.txData = get32(req.Data)
			f.txArmed = true
		} else {
			put32(req.Data, f.txData)
		}
	default:
		if !req.Write {
			zero(req.Data)
		}
	}
	return 2
}
