// Package dma models the DMA controller: hardware-triggered channels that
// move data between peripherals and memories as a bus master, generating
// exactly the kind of significant activity the paper notes "occurs without
// any of the data passing through a processor core" — and which therefore
// needs the MCDS bus observation blocks to be visible at all.
package dma

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/irq"
	"repro/internal/sim"
)

// Channel is one DMA channel. A trigger (an SRN routed to the DMA) starts
// one transfer of Count units from Src to Dst; addresses advance by the
// configured increments per unit.
type Channel struct {
	Name      string
	Src, Dst  uint32
	SrcInc    int32 // bytes added to Src per unit (0 = fixed, e.g. a FIFO register)
	DstInc    int32
	UnitBytes int      // 1 or 4
	Count     uint32   // units per trigger
	DoneSRN   *irq.SRN // raised when a transfer block completes (may be nil)

	Triggers  uint64
	Transfers uint64 // units moved
	Drops     uint64 // triggers while still busy

	// in-flight state
	active    bool
	remaining uint32
	curSrc    uint32
	curDst    uint32
}

// Controller executes channels over the bus.
type Controller struct {
	Name   string
	busRef *bus.Bus
	master int
	router *irq.Router

	channels  []*Channel
	bySRNPrio map[uint32]*Channel

	busyUntil uint64
	counters  sim.Counters
	waker     *sim.Waker
}

// New creates a DMA controller mastering b.
func New(name string, b *bus.Bus, router *irq.Router) *Controller {
	c := &Controller{Name: name, busRef: b, router: router,
		bySRNPrio: make(map[uint32]*Channel)}
	// Leave the wake schedule when a trigger lands mid-sleep. Waker
	// methods are nil-receiver safe, so this works unattached too.
	router.OnRequest(irq.ToDMA, func() { c.waker.Reschedule(c.waker.Cycle()) })
	return c
}

// NextWake implements sim.Sleeper: an idle controller with no pending
// trigger has no per-cycle work (its Tick is a pure no-op), so the clock
// may park it until OnRequest reschedules. While a transfer is in flight
// (or a trigger waits behind the bus-busy window) the next Tick that does
// anything is at busyUntil.
func (c *Controller) NextWake(from uint64) uint64 {
	active := false
	for _, x := range c.channels {
		if x.active {
			active = true
			break
		}
	}
	if !active && !c.router.HasPending(irq.ToDMA) {
		return sim.NoWake
	}
	if c.busyUntil > from {
		return c.busyUntil
	}
	return from
}

// BindWake implements sim.WakeBinder.
func (c *Controller) BindWake(w *sim.Waker) { c.waker = w }

// AddChannel registers ch, triggered by trigger (an SRN with Provider
// irq.ToDMA).
func (c *Controller) AddChannel(ch *Channel, trigger *irq.SRN) {
	if trigger.Provider != irq.ToDMA {
		panic(fmt.Sprintf("dma: trigger SRN %s not routed to DMA", trigger.Name))
	}
	if ch.UnitBytes != 1 && ch.UnitBytes != 4 {
		panic("dma: UnitBytes must be 1 or 4")
	}
	if ch.Count == 0 {
		panic("dma: Count must be > 0")
	}
	c.channels = append(c.channels, ch)
	c.bySRNPrio[trigger.Prio] = ch
}

// Counters exposes DMA events for MCDS taps.
func (c *Controller) Counters() *sim.Counters { return &c.counters }

// Tick implements sim.Ticker: accept one trigger when idle, then move one
// unit per bus round while active.
func (c *Controller) Tick(now uint64) {
	if now < c.busyUntil {
		return
	}
	// Find the active channel, or accept a new trigger.
	var ch *Channel
	for _, x := range c.channels {
		if x.active {
			ch = x
			break
		}
	}
	if ch == nil {
		srn, ok := c.router.TakePending(irq.ToDMA)
		if !ok {
			return
		}
		ch = c.bySRNPrio[srn.Prio]
		if ch == nil {
			return // trigger without channel: ignore (misconfigured SRN)
		}
		ch.Triggers++
		ch.active = true
		ch.remaining = ch.Count
		ch.curSrc = ch.Src
		ch.curDst = ch.Dst
	}

	// Move one unit: read then write.
	buf := make([]byte, ch.UnitBytes)
	rdDone, err := c.busRef.Access(now, &bus.Request{Addr: ch.curSrc, Data: buf})
	if err != nil {
		panic(fmt.Sprintf("dma %s: read failed: %v", ch.Name, err))
	}
	wrDone, err := c.busRef.Access(rdDone, &bus.Request{Addr: ch.curDst, Data: buf, Write: true})
	if err != nil {
		panic(fmt.Sprintf("dma %s: write failed: %v", ch.Name, err))
	}
	c.busyUntil = wrDone
	ch.Transfers++
	c.counters.Inc(sim.EvDMATransfer)

	ch.curSrc += uint32(ch.SrcInc)
	ch.curDst += uint32(ch.DstInc)
	ch.remaining--
	if ch.remaining == 0 {
		ch.active = false
		if ch.DoneSRN != nil {
			c.router.Request(ch.DoneSRN)
		}
	}
}
