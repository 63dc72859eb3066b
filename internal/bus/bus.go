// Package bus models the multi-master on-chip buses of the SoC (the
// TriCore-family LMB program/data buses and the SPB peripheral bus), with
// address decoding, arbitration, and contention accounting.
//
// Timing model: the bus is a synchronous latency oracle. A master performs
// an access by calling Access with the current cycle; the bus computes the
// grant cycle (bounded below by the bus busy-until time), lets the selected
// target perform the data movement and report its device latency, and
// returns the absolute cycle at which the access completes. The bus is held
// for the whole transaction (non-pipelined), which is a simplification of
// the real pipelined LMB but preserves the property the methodology
// measures: concurrent masters serialize and the loser accumulates
// observable wait cycles (EvBusContention / EvBusWaitCycle events).
//
// Same-cycle arbitration collisions resolve in component step order, which
// the SoC assembly fixes deterministically; the effective policy is
// therefore fixed priority in registration order, matching the priority-
// based LMB arbiter. See internal/flash for the code/data port arbitration
// the paper singles out.
package bus

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Request describes one bus transaction. Data is read into or written from
// the supplied slice; its length is the access size in bytes.
type Request struct {
	Addr  uint32 // byte address
	Data  []byte // length 1, 2 or 4 for CPU accesses; larger for line fills
	Write bool
}

// Target is a slave device mapped on a bus. Access is called with the cycle
// at which the bus granted the transaction; the target moves the data and
// returns its additional device latency in cycles beyond the bus transfer
// time.
type Target interface {
	Name() string
	Access(grant uint64, req *Request) (deviceLatency uint64)
}

type region struct {
	base, limit uint64 // [base, limit); uint64 so a window may end at 2^32
	target      Target
}

// Bus is a single shared interconnect.
type Bus struct {
	name      string
	transfer  uint64 // cycles the bus itself needs per transaction
	busyUntil uint64
	regions   []region
	counters  sim.Counters
}

// New creates a bus. transferCycles is the bus occupancy per transaction
// (1 for the fast LMBs, 2 for the slower SPB).
func New(name string, transferCycles uint64) *Bus {
	if transferCycles == 0 {
		transferCycles = 1
	}
	return &Bus{name: name, transfer: transferCycles}
}

// Name returns the bus name.
func (b *Bus) Name() string { return b.name }

// Map attaches target to the address window [base, base+size).
// Windows must not overlap; Map panics on conflicts (SoC assembly bug).
func (b *Bus) Map(base, size uint32, t Target) {
	limit := uint64(base) + uint64(size)
	if size == 0 || limit > 1<<32 {
		panic(fmt.Sprintf("bus %s: bad window [%#x,+%#x)", b.name, base, size))
	}
	for _, r := range b.regions {
		if uint64(base) < r.limit && r.base < limit {
			panic(fmt.Sprintf("bus %s: window [%#x,%#x) overlaps %s", b.name, base, limit, r.target.Name()))
		}
	}
	b.regions = append(b.regions, region{base: uint64(base), limit: limit, target: t})
	sort.Slice(b.regions, func(i, j int) bool { return b.regions[i].base < b.regions[j].base })
}

// Decode returns the target mapped at addr, or nil.
func (b *Bus) Decode(addr uint32) Target {
	a := uint64(addr)
	i := sort.Search(len(b.regions), func(i int) bool { return b.regions[i].limit > a })
	if i < len(b.regions) && a >= b.regions[i].base {
		return b.regions[i].target
	}
	return nil
}

// ErrUnmapped is returned by Access for addresses no target covers.
type ErrUnmapped struct {
	Bus  string
	Addr uint32
}

func (e *ErrUnmapped) Error() string {
	return fmt.Sprintf("bus %s: no target at %#08x", e.Bus, e.Addr)
}

// Access performs a transaction starting no earlier than cycle now. It
// returns the absolute cycle at which the transaction completes (data valid
// for reads, write committed for writes).
func (b *Bus) Access(now uint64, req *Request) (done uint64, err error) {
	t := b.Decode(req.Addr)
	if t == nil {
		return now, &ErrUnmapped{Bus: b.name, Addr: req.Addr}
	}
	b.counters.Inc(sim.EvBusRequest)

	grant := now
	if b.busyUntil > grant {
		wait := b.busyUntil - grant
		grant = b.busyUntil
		b.counters.Inc(sim.EvBusContention)
		b.counters.Add(sim.EvBusWaitCycle, wait)
	}
	b.counters.Inc(sim.EvBusGrant)

	dev := t.Access(grant, req)
	done = grant + b.transfer + dev
	b.busyUntil = done
	return done, nil
}

// Counters exposes the bus event counters (tapped by the MCDS bus
// observation block).
func (b *Bus) Counters() *sim.Counters { return &b.counters }

// Bridge forwards a window of one bus into another (the LMB↔SPB bridge of
// the real SoC). It is a Target on the near bus and a master on the far
// bus; crossing adds its own forwarding latency on top of far-bus
// arbitration.
type Bridge struct {
	name     string
	far      *Bus
	overhead uint64
}

// NewBridge creates a bridge that forwards accesses onto far, adding
// overhead cycles per crossing.
func NewBridge(name string, far *Bus, overhead uint64) *Bridge {
	return &Bridge{name: name, far: far, overhead: overhead}
}

// Name returns the bridge name.
func (br *Bridge) Name() string { return br.name }

// Access forwards the request to the far bus.
func (br *Bridge) Access(grant uint64, req *Request) uint64 {
	done, err := br.far.Access(grant+br.overhead, req)
	if err != nil {
		// An unmapped address behind a bridge is an SoC wiring bug; fail
		// loudly rather than silently returning garbage timing.
		panic(err)
	}
	return done - grant
}
