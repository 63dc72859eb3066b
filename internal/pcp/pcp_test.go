package pcp

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/irq"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tricore"
)

type rig struct {
	p      *PCP
	pram   *mem.RAM
	router *irq.Router
	clock  *sim.Clock
}

func newRig(t *testing.T) *rig {
	t.Helper()
	pram := mem.NewRAM("pram", mem.PRAMBase, 32<<10, 1)
	spb := bus.New("spb", 2)
	spb.Map(mem.PRAMBase, pram.Size(), pram)
	router := irq.New()
	peek := func(addr uint32, p []byte) { pram.Read(addr, p) }
	core := tricore.New("pcp", 1,
		tricore.PMI{PSPR: pram, Bus: spb, Peek: peek},
		tricore.DMI{DSPR: pram, Bus: spb, Peek: peek},
		Timing(), nil)
	p := New(core, pram, router)
	clk := sim.NewClock()
	clk.Attach("pcp", p)
	return &rig{p: p, pram: pram, router: router, clock: clk}
}

func loadChannel(t *testing.T, r *rig, base uint32, build func(a *isa.Asm)) uint32 {
	t.Helper()
	a := isa.NewAsm(base)
	build(a)
	prog, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	r.pram.Write(prog.Base, prog.Bytes())
	return prog.Base
}

func TestChannelRunsOnTrigger(t *testing.T) {
	r := newRig(t)
	entry := loadChannel(t, r, mem.PRAMBase+0x1000, func(a *isa.Asm) {
		a.Movw(1, mem.PRAMBase+0x100)
		a.Ldw(2, 1, 0)
		a.Addi(2, 2, 5)
		a.Stw(2, 1, 0)
		a.Rfe()
	})
	srn := r.router.AddSRN("ch0", 3, irq.ToPCP, 0)
	ch := r.p.AddChannel("ch0", srn, entry)

	r.clock.Run(50)
	if r.p.current != nil {
		t.Fatal("PCP busy without trigger")
	}
	r.router.Request(srn)
	r.clock.Run(200)
	if r.p.current != nil {
		t.Fatal("channel did not finish")
	}
	if got := r.pram.Read32(mem.PRAMBase + 0x100); got != 5 {
		t.Errorf("channel result = %d", got)
	}
	if ch.Invocations != 1 {
		t.Errorf("invocations = %d", ch.Invocations)
	}
}

func TestChannelContextPersists(t *testing.T) {
	// Per-channel register contexts survive across invocations (the PCP
	// keeps channel contexts in PRAM).
	r := newRig(t)
	entry := loadChannel(t, r, mem.PRAMBase+0x1000, func(a *isa.Asm) {
		a.Addi(7, 7, 1) // r7 accumulates across invocations
		a.Movw(1, mem.PRAMBase+0x200)
		a.Stw(7, 1, 0)
		a.Rfe()
	})
	srn := r.router.AddSRN("ch0", 3, irq.ToPCP, 0)
	r.p.AddChannel("ch0", srn, entry)
	for i := 0; i < 4; i++ {
		r.router.Request(srn)
		r.clock.Run(200)
	}
	if got := r.pram.Read32(mem.PRAMBase + 0x200); got != 4 {
		t.Errorf("context accumulator = %d, want 4", got)
	}
}

func TestTwoChannelsIndependentContexts(t *testing.T) {
	r := newRig(t)
	e1 := loadChannel(t, r, mem.PRAMBase+0x1000, func(a *isa.Asm) {
		a.Addi(7, 7, 1)
		a.Movw(1, mem.PRAMBase+0x300)
		a.Stw(7, 1, 0)
		a.Rfe()
	})
	e2 := loadChannel(t, r, mem.PRAMBase+0x1800, func(a *isa.Asm) {
		a.Addi(7, 7, 10)
		a.Movw(1, mem.PRAMBase+0x304)
		a.Stw(7, 1, 0)
		a.Rfe()
	})
	s1 := r.router.AddSRN("ch1", 3, irq.ToPCP, 0)
	s2 := r.router.AddSRN("ch2", 5, irq.ToPCP, 0)
	r.p.AddChannel("ch1", s1, e1)
	r.p.AddChannel("ch2", s2, e2)

	for i := 0; i < 3; i++ {
		r.router.Request(s1)
		r.clock.Run(200)
		r.router.Request(s2)
		r.clock.Run(200)
	}
	if got := r.pram.Read32(mem.PRAMBase + 0x300); got != 3 {
		t.Errorf("ch1 acc = %d, want 3", got)
	}
	if got := r.pram.Read32(mem.PRAMBase + 0x304); got != 30 {
		t.Errorf("ch2 acc = %d, want 30", got)
	}
}

func TestPriorityOrderWhenBothPending(t *testing.T) {
	r := newRig(t)
	order := mem.PRAMBase + uint32(0x400)
	mkCh := func(base uint32, tag int32) uint32 {
		return loadChannel(t, r, base, func(a *isa.Asm) {
			a.Movw(1, order)
			a.Ldw(2, 1, 0)
			a.Shli(2, 2, 4)
			a.Ori(2, 2, tag)
			a.Stw(2, 1, 0)
			a.Rfe()
		})
	}
	lo := r.router.AddSRN("lo", 2, irq.ToPCP, 0)
	hi := r.router.AddSRN("hi", 7, irq.ToPCP, 0)
	r.p.AddChannel("lo", lo, mkCh(mem.PRAMBase+0x1000, 1))
	r.p.AddChannel("hi", hi, mkCh(mem.PRAMBase+0x1800, 2))

	r.router.Request(lo)
	r.router.Request(hi)
	r.clock.Run(500)
	// hi (tag 2) must run first: order word = (0<<4|2)<<4|1 = 0x21.
	if got := r.pram.Read32(order); got != 0x21 {
		t.Errorf("order = %#x, want 0x21", got)
	}
}

func TestSingleIssueWidth(t *testing.T) {
	// The PCP core is single-issue: IPC can never exceed 1.
	r := newRig(t)
	entry := loadChannel(t, r, mem.PRAMBase+0x1000, func(a *isa.Asm) {
		a.Movw(3, 500)
		a.Label("body")
		a.Addi(2, 2, 1)
		a.Stw(2, 1, 0) // LS op that could co-issue on a 3-wide core
		a.Loop(3, "body")
		a.Rfe()
	})
	srn := r.router.AddSRN("ch0", 3, irq.ToPCP, 0)
	r.p.AddChannel("ch0", srn, entry)
	// Point r1 somewhere harmless before first run: contexts start 0 →
	// store to PRAMBase+0... give the channel a valid r1 via PRAM init:
	// store targets [r1+0] with r1=0 → unmapped. Instead patch context by
	// running a setup channel... simpler: r1=0 store would go to address
	// 0 and panic; so make the loop store to an address formed in code.
	_ = entry
	r.pram.Write32(mem.PRAMBase+0x500, 0)
	// Rebuild with explicit address.
	entry2 := loadChannel(t, r, mem.PRAMBase+0x2000, func(a *isa.Asm) {
		a.Movw(1, mem.PRAMBase+0x500)
		a.Movw(3, 500)
		a.Label("body")
		a.Addi(2, 2, 1)
		a.Stw(2, 1, 0)
		a.Loop(3, "body")
		a.Rfe()
	})
	srn2 := r.router.AddSRN("ch1", 4, irq.ToPCP, 0)
	r.p.AddChannel("ch1", srn2, entry2)
	r.router.Request(srn2)
	r.clock.Run(20_000)
	c := r.p.Counters()
	instr := c.Get(sim.EvInstrExecuted)
	cycles := c.Get(sim.EvCycle)
	if instr == 0 {
		t.Fatal("channel never ran")
	}
	if float64(instr) > float64(cycles)*1.01 {
		t.Errorf("PCP IPC exceeds 1: %d instr in %d cycles", instr, cycles)
	}
}
