package mcds

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bus"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/tmsg"
)

// This file keeps the per-cycle delta counter path as the reference the
// by-exception counters are checked against: every observation block
// copies and diffs its whole counter set each cycle, and every counter
// accumulates its two deltas each cycle.

// refObs is a per-cycle delta observation block.
type refObs struct {
	id    uint8
	ctrs  *sim.Counters
	prev  sim.Counters
	delta sim.Counters
}

func newRefObs(ctrs *sim.Counters, id uint8) *refObs {
	return &refObs{id: id, ctrs: ctrs, prev: *ctrs}
}

func (o *refObs) tick() {
	for i := range o.ctrs {
		o.delta[i] = o.ctrs[i] - o.prev[i]
	}
	o.prev = *o.ctrs
}

type refTap struct {
	obs *refObs
	ev  sim.Event
}

func (t refTap) delta() uint64 { return t.obs.delta[t.ev] }

// refCounter is the per-cycle counter structure.
type refCounter struct {
	ID                   uint8
	Mode                 CounterMode
	Src, Basis           refTap
	Resolution           uint64
	Emit                 bool
	ThreshNum, ThreshDen uint64
	Below, Above         Signal
	EmitTriggerOnFire    bool
	TriggerID            uint8
	Enabled              bool
	TrackExtremes        bool

	MaxCount, MaxBasis, MinCount, MinBasis uint64
	haveExtremes                           bool

	curCount, curBasis       uint64
	Windows, Fires, TotalSrc uint64
}

func (c *refCounter) Reset() { c.curCount, c.curBasis = 0, 0 }

func (c *refCounter) updateExtremes() {
	if !c.haveExtremes {
		c.MaxCount, c.MaxBasis = c.curCount, c.curBasis
		c.MinCount, c.MinBasis = c.curCount, c.curBasis
		c.haveExtremes = true
		return
	}
	if c.curCount*c.MaxBasis > c.MaxCount*c.curBasis {
		c.MaxCount, c.MaxBasis = c.curCount, c.curBasis
	}
	if c.curCount*c.MinBasis < c.MinCount*c.curBasis {
		c.MinCount, c.MinBasis = c.curCount, c.curBasis
	}
}

func (c *refCounter) tick(m *refMCDS, cycle uint64) {
	if !c.Enabled {
		return
	}
	src := c.Src.delta()
	c.TotalSrc += src
	switch c.Mode {
	case ModeRate:
		c.curCount += src
		c.curBasis += c.Basis.delta()
		if c.curBasis >= c.Resolution {
			c.Windows++
			if c.TrackExtremes {
				c.updateExtremes()
			}
			if c.Emit {
				m.emit(tmsg.Msg{Kind: tmsg.KindRate, Src: c.Src.obs.id,
					Cycle: cycle, CounterID: c.ID, Basis: c.curBasis, Count: c.curCount})
			}
			if c.ThreshDen > 0 {
				if c.curCount*c.ThreshDen < c.curBasis*c.ThreshNum {
					m.set(c.Below)
					c.Fires++
				} else {
					m.set(c.Above)
				}
			}
			c.curCount, c.curBasis = 0, 0
		}
	case ModeWatchdog:
		if src > 0 {
			c.curBasis = 0
			return
		}
		c.curBasis++
		if c.curBasis >= c.Resolution {
			c.Fires++
			m.set(c.Above)
			if c.EmitTriggerOnFire {
				m.emit(tmsg.Msg{Kind: tmsg.KindTrigger, Src: c.Src.obs.id,
					Cycle: cycle, TriggerID: c.TriggerID})
			}
			c.curBasis = 0
		}
	}
}

// refRule arms (or disarms) a counter while a signal is asserted.
type refRule struct {
	when   Signal
	arm    bool
	target *refCounter
}

type refMCDS struct {
	obs      []*refObs
	counters []*refCounter
	rules    []refRule
	signals  []bool
	msgs     []tmsg.Msg

	// Periodic re-anchoring (MCDS.anchorEvery): a source's first message
	// after an anchor cycle is preceded by a Sync.
	anchorEvery, lastAnchor uint64
	needSync                [tmsg.MaxSources]bool
}

func (m *refMCDS) set(s Signal) {
	if s >= 0 {
		m.signals[s] = true
	}
}

func (m *refMCDS) emit(msg tmsg.Msg) {
	if m.needSync[msg.Src] {
		m.msgs = append(m.msgs, tmsg.Msg{Kind: tmsg.KindSync, Src: msg.Src, Cycle: msg.Cycle})
		m.needSync[msg.Src] = false
	}
	m.msgs = append(m.msgs, msg)
}

func (m *refMCDS) Tick(cycle uint64) {
	if m.anchorEvery > 0 && cycle-m.lastAnchor >= m.anchorEvery {
		for i := range m.needSync {
			m.needSync[i] = true
		}
		m.lastAnchor = cycle
	}
	for i := range m.signals {
		m.signals[i] = false
	}
	for _, o := range m.obs {
		o.tick()
	}
	for _, c := range m.counters {
		c.tick(m, cycle)
	}
	for _, r := range m.rules {
		if !m.signals[r.when] {
			continue
		}
		if r.arm && !r.target.Enabled {
			r.target.Enabled = true
			r.target.Reset()
		} else if !r.arm {
			r.target.Enabled = false
		}
	}
}

// read and write mirror RegFile's counter registers.
func (m *refMCDS) read(off uint32) uint32 {
	i := int(off-RegCounterBase) / counterStride
	c := m.counters[i]
	switch (off - RegCounterBase) % counterStride {
	case regCtrl:
		if c.Enabled {
			return 1
		}
		return 0
	case regTotal:
		return uint32(c.TotalSrc)
	case regCount:
		return uint32(c.curCount)
	}
	return uint32(c.curBasis)
}

func (m *refMCDS) write(off uint32, v uint32) {
	c := m.counters[int(off-RegCounterBase)/counterStride]
	if (off-RegCounterBase)%counterStride == regCtrl {
		enable := v&1 != 0
		if enable && !c.Enabled {
			c.Reset()
		}
		c.Enabled = enable
	}
}

// oracleRig drives the MCDS and the reference from one SoC.
type oracleRig struct {
	t    *testing.T
	soc  *soc.SoC
	m    *MCDS
	rf   *RegFile
	ref  *refMCDS
	ctrs []*Counter // parallel to ref.counters
	got  []tmsg.Msg
	rng  *rand.Rand

	checked int // messages already compared

	busReads int
}

// dualRegs is the register file as the TriCore sees it: every access
// goes to the MCDS, writes are mirrored into the reference, and every
// read is checked against the reference value.
type dualRegs struct{ r *oracleRig }

func (d dualRegs) Name() string { return "oracle.regs" }

func (d dualRegs) Access(now uint64, req *bus.Request) uint64 {
	r := d.r
	off := req.Addr - mem.MCDSRegBase
	if req.Write {
		r.ref.write(off, get32(req.Data))
		return r.rf.Access(now, req)
	}
	lat := r.rf.Access(now, req)
	r.busReads++
	if got, want := get32(req.Data), r.ref.read(off); got != want {
		r.t.Fatalf("cycle %d: TriCore read of register %#x = %d, reference %d", now, off, got, want)
	}
	return lat
}

// oracleProgram keeps the counters busy: flash table loads (data-flash
// reads and stalls), register reads of several counters, a DSPR
// heartbeat for the watchdog, and a store toggling counter 3 on and off.
func oracleProgram() *isa.Asm {
	a := isa.NewAsm(mem.FlashBase)
	a.Movw(1, mem.MCDSRegBase+RegCounterBase)
	a.Movw(5, mem.DSPRBase)
	a.Movw(3, 400)
	a.Label("outer")
	a.Movw(7, mem.FlashBase+0x10000)
	a.Movw(4, 24)
	a.Label("inner")
	a.Ldw(6, 7, 0)
	a.Add(8, 8, 6)
	a.Addi(7, 7, 32)
	a.Ldw(9, 1, regCount)
	a.Ldw(10, 1, counterStride+regTotal)
	a.Ldw(11, 1, 2*counterStride+regBasis)
	a.Loop(4, "inner")
	a.Stw(8, 5, 0)
	a.Movi(2, 0)
	a.Stw(2, 1, 3*counterStride+regCtrl)
	a.Movw(4, 30)
	a.Label("off")
	a.Addi(12, 12, 3)
	a.Ldw(13, 1, 3*counterStride+regCount)
	a.Loop(4, "off")
	a.Movi(2, 1)
	a.Stw(2, 1, 3*counterStride+regCtrl)
	a.Loop(3, "outer")
	a.Halt()
	return a
}

func newOracleRig(t *testing.T, seed int64) *oracleRig {
	s := soc.New(soc.TC1797().WithED(), uint64(seed))
	p, err := oracleProgram().Assemble()
	if err != nil {
		t.Fatal(err)
	}
	s.LoadProgram(p)
	s.ResetCPU(p.Base)

	r := &oracleRig{t: t, soc: s, m: New(nil), ref: &refMCDS{}, rng: rand.New(rand.NewSource(seed))}
	r.m.OnEmit = func(msg *tmsg.Msg) {
		if msg.Kind == tmsg.KindRate || msg.Kind == tmsg.KindTrigger {
			r.got = append(r.got, *msg)
		}
	}
	core := r.m.AddCore(s.CPU, 0)
	dlmb := r.m.AddBus(s.DLMB.Counters(), 2)
	rcore := newRefObs(s.CPU.Counters(), 0)
	rdlmb := newRefObs(s.DLMB.Counters(), 2)
	r.ref.obs = []*refObs{rcore, rdlmb}

	sig := func(name string) Signal {
		r.ref.signals = append(r.ref.signals, false)
		return r.m.AllocSignal(name)
	}
	below, above := sig("ipc-low"), sig("ipc-ok")
	quiet, busQuiet := sig("quiet"), sig("bus-quiet")

	type tapSpec struct {
		obs Observer
		ref *refObs
		ev  sim.Event
	}
	cpu := func(ev sim.Event) tapSpec { return tapSpec{core, rcore, ev} }
	res := func(lo, hi int) uint64 { return uint64(lo + r.rng.Intn(hi-lo+1)) }
	add := func(c *Counter, src, basis tapSpec) {
		rc := &refCounter{ID: c.ID, Mode: c.Mode, Src: refTap{src.ref, src.ev},
			Resolution: c.Resolution, Emit: c.Emit, ThreshNum: c.ThreshNum, ThreshDen: c.ThreshDen,
			Below: c.Below, Above: c.Above, EmitTriggerOnFire: c.EmitTriggerOnFire,
			TriggerID: c.TriggerID, Enabled: c.Enabled(), TrackExtremes: c.TrackExtremes}
		c.Src = Tap{Obs: src.obs, Event: src.ev}
		if c.Mode == ModeRate {
			c.Basis = Tap{Obs: basis.obs, Event: basis.ev}
			rc.Basis = refTap{basis.ref, basis.ev}
		}
		r.m.AddCounter(c)
		r.ctrs = append(r.ctrs, c)
		r.ref.counters = append(r.ref.counters, rc)
	}
	rate := func(id uint8, resolution uint64) *Counter {
		return NewRateCounter(fmt.Sprint("c", id), id, Tap{}, Tap{}, resolution)
	}

	ipc := rate(0, res(5, 120))
	ipc.ThreshNum, ipc.ThreshDen = 8, 10
	ipc.Below, ipc.Above = below, above
	ipc.TrackExtremes = true
	add(ipc, cpu(sim.EvInstrExecuted), cpu(sim.EvCycle))
	add(rate(1, res(3, 60)), cpu(sim.EvDFlashRead), cpu(sim.EvInstrExecuted))
	imiss := rate(2, res(10, 90))
	imiss.TrackExtremes = true
	add(imiss, cpu(sim.EvICacheMiss), cpu(sim.EvInstrExecuted))
	add(rate(3, res(20, 100)), cpu(sim.EvStallData), cpu(sim.EvCycle))
	add(rate(4, res(5, 80)), tapSpec{dlmb, rdlmb, sim.EvBusRequest}, cpu(sim.EvInstrExecuted))
	fine := rate(5, res(2, 30))
	fine.SetEnabled(false)
	add(fine, cpu(sim.EvInstrExecuted), cpu(sim.EvCycle))
	busBasis := rate(6, res(2, 20))
	busBasis.Emit = false
	busBasis.ThreshNum, busBasis.ThreshDen = 1, 1
	busBasis.Above = busQuiet
	add(busBasis, cpu(sim.EvStallCycle), tapSpec{dlmb, rdlmb, sim.EvBusGrant})
	wd := NewWatchdog("wd", 7, Tap{}, res(20, 300), quiet)
	wd.EmitTriggerOnFire, wd.TriggerID = true, 9
	add(wd, cpu(sim.EvDScratchAccess), tapSpec{})
	add(NewWatchdog("wd-bus", 8, Tap{}, res(2, 12), NoSignal), tapSpec{dlmb, rdlmb, sim.EvBusGrant}, tapSpec{})

	rule := func(when Signal, arm bool, c int) {
		kind := ActDisableCounter
		if arm {
			kind = ActEnableCounter
		}
		r.m.AddRule(&TriggerRule{Name: "cascade", When: On(when),
			Do: []Action{{Kind: kind, Counter: r.ctrs[c]}}})
		r.ref.rules = append(r.ref.rules, refRule{when: when, arm: arm, target: r.ref.counters[c]})
	}
	rule(below, true, 5)
	rule(above, false, 5)
	rule(quiet, false, 1)
	rule(busQuiet, true, 1)

	r.rf = r.m.RegFile(mem.MCDSRegBase)
	s.DLMB.Map(mem.MCDSRegBase, r.rf.Size(), dualRegs{r})
	// The prober runs after the SoC and before the MCDS: its register
	// reads and schedule operations land mid-cycle, after the target's
	// events of the cycle and before the MCDS observes them.
	s.Clock.Attach("prober", sim.TickerFunc(func(cycle uint64) {
		r.compare(cycle, "mid-cycle")
		r.perturb()
	}))
	s.Clock.Attach("mcds", r.m)
	s.Clock.Attach("ref", r.ref)
	return r
}

// perturb applies one seeded schedule step to both implementations:
// enable flips by assignment or register write, window resets, and
// single-counter or Degrader-style all-counter resolution changes.
func (r *oracleRig) perturb() {
	if r.rng.Intn(40) != 0 {
		return
	}
	i := r.rng.Intn(len(r.ctrs))
	c, rc := r.ctrs[i], r.ref.counters[i]
	switch r.rng.Intn(6) {
	case 0:
		c.SetEnabled(!c.Enabled())
		rc.Enabled = !rc.Enabled
	case 1:
		c.Reset()
		rc.Reset()
	case 2:
		res := uint64(1 + r.rng.Intn(150))
		c.SetResolution(res)
		rc.Resolution = res
	case 3:
		up := r.rng.Intn(2) == 0
		for j, c := range r.ctrs {
			if c.Mode != ModeRate {
				continue
			}
			res := c.Resolution * 2
			if !up {
				res = max(c.Resolution/2, 1)
			}
			c.SetResolution(res)
			r.ref.counters[j].Resolution = res
		}
	default:
		off := RegCounterBase + uint32(i)*counterStride + regCtrl
		v := uint32(r.rng.Intn(2))
		r.ref.write(off, v)
		if r.rf == nil {
			// No register file: apply the control write's action.
			a := Action{Kind: ActDisableCounter, Counter: c}
			if v != 0 {
				a.Kind = ActEnableCounter
			}
			r.m.apply(a, 0)
			return
		}
		r.rf.write(off, v)
	}
}

// compare checks every signal, every counter register and the emitted
// message stream against the reference.
func (r *oracleRig) compare(cycle uint64, when string) {
	t := r.t
	t.Helper()
	for i := range r.ctrs {
		for reg := uint32(0); reg < counterStride; reg += 4 {
			off := RegCounterBase + uint32(i)*counterStride + reg
			if got, want := r.rf.read(off), r.ref.read(off); got != want {
				t.Fatalf("cycle %d %s: counter %d register %#x = %d, reference %d", cycle, when, i, reg, got, want)
			}
		}
	}
	for s := range r.ref.signals {
		if r.m.signals[s] != r.ref.signals[s] {
			t.Fatalf("cycle %d %s: signal %s = %v, reference %v", cycle, when,
				r.m.SignalName(Signal(s)), r.m.signals[s], r.ref.signals[s])
		}
	}
	if len(r.got) != len(r.ref.msgs) {
		t.Fatalf("cycle %d %s: %d messages, reference %d", cycle, when, len(r.got), len(r.ref.msgs))
	}
	for ; r.checked < len(r.got); r.checked++ {
		if k := r.checked; r.got[k] != r.ref.msgs[k] {
			t.Fatalf("cycle %d %s: message %d = %+v, reference %+v", cycle, when, k, r.got[k], r.ref.msgs[k])
		}
	}
}

// TestCountersMatchPerCycleReference drives the by-exception counters and
// the per-cycle reference from one SoC under seeded random schedules and
// requires identical messages, signals and registers on every cycle, both
// mid-cycle and after the tick, plus identical statistics at the end.
func TestCountersMatchPerCycleReference(t *testing.T) {
	const cycles = 40_000
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			r := newOracleRig(t, seed)
			for c := uint64(0); c < cycles; c++ {
				r.soc.Clock.Step()
				r.compare(c, "after tick")
				// Between ticks is where a host assigns between Run calls.
				r.perturb()
			}
			for i, c := range r.ctrs {
				rc := r.ref.counters[i]
				got := [...]uint64{c.Windows, c.Fires, c.TotalSrc(), c.MaxCount, c.MaxBasis, c.MinCount, c.MinBasis}
				want := [...]uint64{rc.Windows, rc.Fires, rc.TotalSrc, rc.MaxCount, rc.MaxBasis, rc.MinCount, rc.MinBasis}
				if got != want {
					t.Errorf("counter %d statistics %v, reference %v", i, got, want)
				}
			}
			if r.busReads == 0 || len(r.got) == 0 {
				t.Fatalf("schedule exercised nothing: %d TriCore reads, %d messages", r.busReads, len(r.got))
			}
			var fine, wdFires uint64 = r.ctrs[5].Windows, r.ctrs[7].Fires
			if fine == 0 || wdFires == 0 {
				t.Errorf("cascade or watchdog never engaged: fine windows %d, watchdog fires %d", fine, wdFires)
			}
		})
	}
}

// rateProgram keeps rate counters busy without touching the register
// file: flash table loads (data-flash reads and stalls), a DSPR store and
// an ALU stretch, then a halt, after which nothing counts any more.
func rateProgram() *isa.Asm {
	a := isa.NewAsm(mem.FlashBase)
	a.Movw(5, mem.DSPRBase)
	a.Movw(3, 120)
	a.Label("outer")
	a.Movw(7, mem.FlashBase+0x10000)
	a.Movw(4, 24)
	a.Label("inner")
	a.Ldw(6, 7, 0)
	a.Add(8, 8, 6)
	a.Addi(7, 7, 32)
	a.Loop(4, "inner")
	a.Stw(8, 5, 0)
	a.Movw(4, 40)
	a.Label("alu")
	a.Addi(12, 12, 3)
	a.Addi(13, 13, 1)
	a.Loop(4, "alu")
	a.Loop(3, "outer")
	a.Halt()
	return a
}

// tickCount counts the Ticks the clock delivers to an MCDS.
type tickCount struct {
	*MCDS
	ticks uint64
}

func (c *tickCount) Tick(cycle uint64) {
	c.ticks++
	c.MCDS.Tick(cycle)
}

// newRateRig builds the sleeping variant of the oracle rig: rate counters
// on EvCycle and EvInstrExecuted bases with periodic anchors, and no
// watchdog, comparator, trigger or register file, so the MCDS sleeps
// between window closes. A host compares and perturbs it between cycles
// (perturb); a ticker attached after the MCDS and the reference compares
// mid-cycle and changes every resolution the way the Degrader does.
func newRateRig(t *testing.T, seed int64) (*oracleRig, *tickCount) {
	s := soc.New(soc.TC1797().WithED(), uint64(seed))
	p, err := rateProgram().Assemble()
	if err != nil {
		t.Fatal(err)
	}
	s.LoadProgram(p)
	s.ResetCPU(p.Base)

	r := &oracleRig{t: t, soc: s, m: New(nil), ref: &refMCDS{}, rng: rand.New(rand.NewSource(seed))}
	r.m.OnEmit = func(msg *tmsg.Msg) {
		if msg.Kind == tmsg.KindRate || msg.Kind == tmsg.KindSync {
			r.got = append(r.got, *msg)
		}
	}
	r.m.anchorEvery = uint64(200 + r.rng.Intn(800))
	r.ref.anchorEvery = r.m.anchorEvery
	core := r.m.AddCore(s.CPU, 0)
	dlmb := r.m.AddBus(s.DLMB.Counters(), 2)
	rcore := newRefObs(s.CPU.Counters(), 0)
	rdlmb := newRefObs(s.DLMB.Counters(), 2)
	r.ref.obs = []*refObs{rcore, rdlmb}
	r.ref.signals = []bool{false, false}
	below, above := r.m.AllocSignal("ipc-low"), r.m.AllocSignal("ipc-ok")

	res := func(lo, hi int) uint64 { return uint64(lo + r.rng.Intn(hi-lo+1)) }
	add := func(c *Counter, src Observer, rsrc *refObs, ev sim.Event, basis sim.Event) {
		c.Src = Tap{Obs: src, Event: ev}
		c.Basis = Tap{Obs: core, Event: basis}
		r.m.AddCounter(c)
		r.ctrs = append(r.ctrs, c)
		r.ref.counters = append(r.ref.counters, &refCounter{ID: c.ID, Mode: c.Mode,
			Src: refTap{rsrc, ev}, Basis: refTap{rcore, basis}, Resolution: c.Resolution,
			Emit: c.Emit, ThreshNum: c.ThreshNum, ThreshDen: c.ThreshDen, Below: c.Below,
			Above: c.Above, Enabled: c.Enabled(), TrackExtremes: c.TrackExtremes})
	}
	rate := func(id uint8, resolution uint64) *Counter {
		return NewRateCounter(fmt.Sprint("c", id), id, Tap{}, Tap{}, resolution)
	}

	ipc := rate(0, res(20, 400))
	ipc.ThreshNum, ipc.ThreshDen = 8, 10
	ipc.Below, ipc.Above = below, above
	ipc.TrackExtremes = true
	add(ipc, core, rcore, sim.EvInstrExecuted, sim.EvCycle)
	add(rate(1, res(10, 300)), core, rcore, sim.EvDFlashRead, sim.EvInstrExecuted)
	imiss := rate(2, res(30, 500))
	imiss.TrackExtremes = true
	add(imiss, core, rcore, sim.EvICacheMiss, sim.EvInstrExecuted)
	add(rate(3, res(50, 600)), core, rcore, sim.EvStallData, sim.EvCycle)
	add(rate(4, res(20, 300)), dlmb, rdlmb, sim.EvBusRequest, sim.EvInstrExecuted)
	fine := rate(5, res(5, 60))
	fine.SetEnabled(false)
	add(fine, core, rcore, sim.EvInstrExecuted, sim.EvCycle)

	counted := &tickCount{MCDS: r.m}
	s.Clock.Attach("mcds", counted)
	s.Clock.Attach("ref", r.ref)
	s.Clock.Attach("degrader", sim.TickerFunc(func(cycle uint64) {
		r.compareRates(cycle, "after the MCDS")
		if r.rng.Intn(300) != 0 {
			return
		}
		up := r.rng.Intn(2) == 0
		for j, c := range r.ctrs {
			res := c.Resolution * 2
			if !up {
				res = max(c.Resolution/2, 1)
			}
			c.SetResolution(res)
			r.ref.counters[j].Resolution = res
		}
	}))
	return r, counted
}

// compareRates checks every counter's window, total and arming, every
// signal and the emitted message stream against the reference, through
// the counter methods a host uses (the rig has no register file).
func (r *oracleRig) compareRates(cycle uint64, when string) {
	t := r.t
	t.Helper()
	for i, c := range r.ctrs {
		rc := r.ref.counters[i]
		count, basis := c.window()
		got := [...]uint64{count, basis, c.TotalSrc()}
		want := [...]uint64{rc.curCount, rc.curBasis, rc.TotalSrc}
		if got != want || c.Enabled() != rc.Enabled {
			t.Fatalf("cycle %d %s: counter %d window/basis/total %v enabled %v, reference %v enabled %v",
				cycle, when, i, got, c.Enabled(), want, rc.Enabled)
		}
	}
	for s := range r.ref.signals {
		if r.m.signals[s] != r.ref.signals[s] {
			t.Fatalf("cycle %d %s: signal %s = %v, reference %v", cycle, when,
				r.m.SignalName(Signal(s)), r.m.signals[s], r.ref.signals[s])
		}
	}
	if len(r.got) != len(r.ref.msgs) {
		t.Fatalf("cycle %d %s: %d messages, reference %d", cycle, when, len(r.got), len(r.ref.msgs))
	}
	for ; r.checked < len(r.got); r.checked++ {
		if k := r.checked; r.got[k] != r.ref.msgs[k] {
			t.Fatalf("cycle %d %s: message %d = %+v, reference %+v", cycle, when, k, r.got[k], r.ref.msgs[k])
		}
	}
}

// TestSleepingCountersMatchPerCycleReference is the oracle for the MCDS
// wake schedule: a rate-only MCDS sleeps between window closes and
// anchors, and must still match the per-cycle reference on every cycle —
// messages (anchoring Syncs included), signals, windows and totals read
// between cycles and mid-cycle after the MCDS, and the statistics at the
// end — under host arming, resets and Degrader-style resolution changes.
func TestSleepingCountersMatchPerCycleReference(t *testing.T) {
	const cycles = 60_000
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			r, counted := newRateRig(t, seed)
			for c := uint64(0); c < cycles; c++ {
				r.soc.Clock.Step()
				r.compareRates(c, "after tick")
				r.perturb()
			}
			for i, c := range r.ctrs {
				rc := r.ref.counters[i]
				got := [...]uint64{c.Windows, c.Fires, c.TotalSrc(), c.MaxCount, c.MaxBasis, c.MinCount, c.MinBasis}
				want := [...]uint64{rc.Windows, rc.Fires, rc.TotalSrc, rc.MaxCount, rc.MaxBasis, rc.MinCount, rc.MinBasis}
				if got != want {
					t.Errorf("counter %d statistics %v, reference %v", i, got, want)
				}
			}
			if !r.soc.CPU.Halted() || r.ctrs[5].Windows == 0 || len(r.got) == 0 {
				t.Fatalf("schedule exercised too little: halted %v, fine windows %d, %d messages",
					r.soc.CPU.Halted(), r.ctrs[5].Windows, len(r.got))
			}
			if counted.ticks*2 > cycles {
				t.Errorf("MCDS ticked on %d of %d cycles: it did not sleep", counted.ticks, cycles)
			}
		})
	}
}
