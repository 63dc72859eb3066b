// Package pcp models the Peripheral Control Processor of the TriCore SoCs:
// a single-issue coprocessor that executes short channel programs from its
// own code/data RAM (PRAM) in response to interrupt requests, offloading
// peripheral handling from the TriCore. The paper names the TriCore/PCP
// software partitioning as one of the degrees of freedom that makes
// customer applications structurally different — the workload generator
// uses this model to vary the HW/SW split.
//
// The PCP reuses the tricore core model configured single-issue (one pipe
// used per cycle) with per-channel register contexts swapped in software
// here, mirroring the real PCP's channel contexts in PRAM.
package pcp

import (
	"fmt"

	"repro/internal/irq"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tricore"
)

// Channel is one PCP channel: an entry address and a saved register
// context.
type Channel struct {
	Name  string
	Entry uint32
	regs  [isa.NumRegs]uint32

	Invocations uint64
}

// PCP wraps a single-issue core with channel dispatch.
type PCP struct {
	Core   *tricore.CPU
	PRAM   *mem.RAM
	router *irq.Router

	channels map[uint32]*Channel // by SRN priority
	current  *Channel
	switchAt uint64 // context-switch latency window

	counters *sim.Counters
	waker    *sim.Waker
}

// contextSwitchCycles is the dispatch overhead per channel start.
const contextSwitchCycles = 3

// Timing returns the PCP core timing: single-issue, one fetch block per
// cycle.
func Timing() tricore.Timing {
	return tricore.Timing{FetchBlocksCycle: 1, IssueWidth: 1}
}

// New creates a PCP around core (which must have been built with Timing()
// and a PRAM-backed PMI/DMI). router supplies irq.ToPCP requests.
func New(core *tricore.CPU, pram *mem.RAM, router *irq.Router) *PCP {
	p := &PCP{
		Core:     core,
		PRAM:     pram,
		router:   router,
		channels: make(map[uint32]*Channel),
		counters: core.Counters(),
	}
	// Leave the wake schedule when a channel trigger lands mid-sleep.
	// Waker methods are nil-receiver safe, so this works unattached too.
	router.OnRequest(irq.ToPCP, func() { p.waker.Reschedule(p.waker.Cycle()) })
	return p
}

// NextWake implements sim.Sleeper: an idle PCP with no pending trigger has
// no per-cycle work (its Tick is a pure no-op), so the clock may park it
// until OnRequest reschedules. A dispatched channel keeps it due every
// cycle (context-switch stall cycles are counted ticks, not sleep).
func (p *PCP) NextWake(from uint64) uint64 {
	if p.current == nil && !p.router.HasPending(irq.ToPCP) {
		return sim.NoWake
	}
	return from
}

// BindWake implements sim.WakeBinder.
func (p *PCP) BindWake(w *sim.Waker) { p.waker = w }

// AddChannel binds a channel program entry to the SRN priority that
// triggers it.
func (p *PCP) AddChannel(name string, trigger *irq.SRN, entry uint32) *Channel {
	if trigger.Provider != irq.ToPCP {
		panic(fmt.Sprintf("pcp: trigger SRN %s not routed to PCP", trigger.Name))
	}
	ch := &Channel{Name: name, Entry: entry}
	p.channels[trigger.Prio] = ch
	return ch
}

// Counters exposes the PCP core counter set (the MCDS PCP observation
// block tap).
func (p *PCP) Counters() *sim.Counters { return p.counters }

// Tick implements sim.Ticker: dispatch a pending channel when idle,
// otherwise advance the core. A channel program ends with RFE (the core
// halts, having an empty shadow stack).
func (p *PCP) Tick(now uint64) {
	if p.current != nil {
		if p.Core.Halted() {
			// Channel program finished: save context, go idle.
			for i := range p.current.regs {
				p.current.regs[i] = p.Core.Reg(i)
			}
			p.current = nil
		} else if now < p.switchAt {
			// Context-switch latency window.
			p.counters.Inc(sim.EvPCPStall)
			return
		} else {
			p.counters.Inc(sim.EvPCPCycle)
			p.Core.Tick(now)
			return
		}
	}
	srn, ok := p.router.TakePending(irq.ToPCP)
	if !ok {
		return
	}
	ch := p.channels[srn.Prio]
	if ch == nil {
		return // trigger without program: ignore
	}
	ch.Invocations++
	p.current = ch
	p.Core.Reset(ch.Entry, 0)
	for i, v := range ch.regs {
		p.Core.SetReg(i, v)
	}
	p.switchAt = now + contextSwitchCycles
}
