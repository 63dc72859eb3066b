// Package mcds implements the Multi-Core Debug Solution of the Emulation
// Extension Chip: a configurable and scalable trigger, trace qualification
// and trace compression block (paper Section 3). It observes the cores and
// buses of the SoC non-intrusively, counts performance-relevant events,
// evaluates Boolean trigger conditions, counters and state machines, and
// writes compressed trace messages into the Emulation Memory.
//
// Structure, mirroring the paper's Figure 5:
//
//   - CoreObs   — per-core observation blocks (POB/MCX adaptation logic):
//     tap the core's retire stream and event counters; generate program
//     flow and data trace messages with cycle timestamps.
//   - BusObs    — bus observation blocks (BOB/SBO): tap bus and flash
//     event counters.
//   - Counter   — counter structures measuring event rates against a
//     configurable resolution basis (executed instructions or cycles),
//     with optional rate-message emission, threshold signals, and a
//     watchdog mode that fires when an event does NOT happen within a
//     time window.
//   - Comparator — PC / address / data comparators on the retire stream.
//   - StateMachine / TriggerRule — Boolean expressions over the signal
//     cross-connect (the MCX), driving actions such as arming counters or
//     switching trace on and off.
//
// The MCDS ticks after every component it observes (the SoC registers it
// later on the clock), so within one cycle it sees that cycle's complete
// events and retire log. It never feeds back into the target: the
// instrumented system executes cycle-for-cycle identically with or
// without the MCDS attached — the paper's non-intrusiveness property.
// Counters are observed by exception (DESIGN.md §17).
package mcds

import (
	"fmt"

	"repro/internal/emem"
	"repro/internal/sim"
	"repro/internal/tmsg"
	"repro/internal/tricore"
)

// Observer is an observation block: the event counter set counter
// structures tap, and its trace source id.
type Observer interface {
	// Counters returns the observed component's event counter set.
	Counters() *sim.Counters
	// SrcID returns the trace source id of this observation block.
	SrcID() uint8
}

// Tap selects one event class on one observation block.
type Tap struct {
	Obs   Observer
	Event sim.Event
}

// MCDS is the assembled trigger/trace block.
type MCDS struct {
	// Sink is the trace destination (the EMEM trace partition). A nil
	// sink discards bytes but still accounts them, which lets benchmarks
	// measure pure bandwidth without a buffer model.
	Sink *emem.EMEM

	cores []*CoreObs

	counters  []*Counter
	watchdogs []*Counter // the ModeWatchdog subset, stepped every cycle
	words     []word     // distinct tapped event words
	bases     []int      // words that are the basis of an armed rate counter
	comps     []*Comparator
	sms       []*StateMachine
	rules     []*TriggerRule

	signals  []bool
	sigNames []string

	enc     tmsg.Encoder
	scratch []byte
	framer  *tmsg.Framer

	// syncEvery emits a periodic re-anchor per flow-traced core every N
	// cycles: New sets 1 << 16; tests shorten it (0 = only when needed).
	syncEvery uint64

	// anchorEvery, when non-zero, re-anchors EVERY active trace source at
	// least every N cycles (not just flow-traced cores). EnableFraming
	// sets it to framedAnchorEvery; it is zero otherwise, so the clean-path
	// byte stream is unchanged.
	anchorEvery uint64
	lastAnchor  uint64

	// OnEmit, when non-nil, observes every message accepted into the
	// trace stream (after overflow/sync protocol insertions). It is the
	// ground-truth mirror chaos tests compare the decoded stream against;
	// it must not mutate the message.
	OnEmit  func(*tmsg.Msg)
	emitted tmsg.Msg // OnEmit's copy: emitted messages stay on the stack

	pendingLost uint64
	needSync    [tmsg.MaxSources]bool

	// Statistics.
	MsgsEmitted  uint64
	BytesEmitted uint64
	MsgsLost     uint64
	Reanchors    uint64                  // Sync messages emitted
	SrcMsgs      [tmsg.MaxSources]uint64 // messages emitted per trace source

	// wake is the clock's handle on the MCDS (nil until attached).
	// everyCycle pins it to a tick on every cycle: watchdogs, comparators,
	// state machines, trigger rules and the register file all need one.
	wake       *sim.Waker
	everyCycle bool
}

// New creates an empty MCDS writing to sink (which may be nil).
func New(sink *emem.EMEM) *MCDS {
	return &MCDS{Sink: sink, syncEvery: 1 << 16}
}

// Signal is an index into the MCX signal cross-connect.
type Signal int

// NoSignal marks an unconnected signal input or output.
const NoSignal Signal = -1

// AllocSignal reserves a named signal line.
func (m *MCDS) AllocSignal(name string) Signal {
	m.signals = append(m.signals, false)
	m.sigNames = append(m.sigNames, name)
	return Signal(len(m.signals) - 1)
}

// SignalName returns the name of s.
func (m *MCDS) SignalName(s Signal) string { return m.sigNames[s] }

func (m *MCDS) set(s Signal) {
	if s >= 0 {
		m.signals[s] = true
	}
}

// framedAnchorEvery is the periodic all-source re-anchor interval of the
// framed path, in cycles. It bounds the tool-side recovery window after
// link loss: a resynchronizing decoder discards a source's delta-coded
// messages until its next Sync, so without periodic anchors a single lost
// frame would poison counter and bus sources to the end of the run. The
// cost is one small Sync per active source per period.
const framedAnchorEvery = 4096

// EnableFraming routes every emitted message through the CRC/seq frame
// layer (tmsg.Framer) on its way into the EMEM, and re-anchors every
// active source each framedAnchorEvery cycles. Pair it with a reliable
// DAP (dap.DAP.Reliable) and a framed tool-side decoder. Call before the
// first emitted message.
func (m *MCDS) EnableFraming() {
	if m.framer != nil {
		return
	}
	m.anchorEvery = framedAnchorEvery
	m.framer = &tmsg.Framer{Sink: func(frame []byte) bool {
		if m.Sink == nil {
			return true
		}
		return m.Sink.AppendTrace(frame)
	}}
}

// Framer exposes the frame layer (nil when framing is disabled).
func (m *MCDS) Framer() *tmsg.Framer { return m.framer }

// FlushTrace flushes a partially filled frame into the sink (end of run).
// A no-op without framing.
func (m *MCDS) FlushTrace() {
	if m.framer == nil {
		return
	}
	if dropped := m.framer.Flush(); dropped > 0 {
		m.noteFrameDrop(dropped)
	}
}

// Tick implements sim.Ticker. Evaluation order within a cycle: observation
// blocks (trace generation, comparators) → counters → state machines →
// trigger rules. Counters are visited, in registration order, only on a
// cycle where a basis word reaches its due value; watchdogs step every
// cycle.
func (m *MCDS) Tick(cycle uint64) {
	if m.anchorEvery > 0 && cycle-m.lastAnchor >= m.anchorEvery {
		for i := range m.needSync {
			m.needSync[i] = true
		}
		m.lastAnchor = cycle
	}
	for i := range m.signals {
		m.signals[i] = false
	}
	if !m.lazy() {
		m.refresh()
	}
	due := false
	for _, i := range m.bases {
		if w := &m.words[i]; *w.p >= w.due {
			due = true
			break
		}
	}
	for _, c := range m.cores {
		// A core logs retirements only while they are consumed; skipping
		// it otherwise is exact, as its periodic-sync deadline is monotone.
		if c.tracing() {
			c.tick(m, cycle)
		}
	}
	if due {
		for _, c := range m.counters {
			c.tick(m, cycle)
		}
		m.arm()
	} else {
		for _, c := range m.watchdogs {
			c.tick(m, cycle)
		}
	}
	for _, s := range m.sms {
		s.tick(m, cycle)
	}
	for _, r := range m.rules {
		r.tick(m, cycle)
	}
}

// NextWake implements sim.Sleeper. A pinned MCDS, a traced core or a
// signal raised this cycle (cleared on the next) keeps it due every cycle.
// Otherwise it sleeps until the next anchor or until a basis word can
// first reach its due value: the word's value after cycle from-1 plus at
// most its per-cycle rise on every cycle after that.
func (m *MCDS) NextWake(from uint64) uint64 {
	if m.everyCycle {
		return from
	}
	for _, c := range m.cores {
		if c.tracing() {
			return from
		}
	}
	for _, s := range m.signals {
		if s {
			return from
		}
	}
	next := sim.NoWake
	if m.anchorEvery > 0 {
		next = m.lastAnchor + m.anchorEvery
	}
	for _, i := range m.bases {
		w := &m.words[i]
		v := *w.p
		if v >= w.due || w.rise == 0 {
			return from
		}
		next = min(next, from-1+(w.due-v+w.rise-1)/w.rise)
	}
	return max(next, from)
}

// BindWake implements sim.WakeBinder. From then on, reads between wakes
// refresh the words they use (see lazy).
func (m *MCDS) BindWake(w *sim.Waker) { m.wake = w }

// lazy reports whether the words' last-tick values are refreshed on access
// instead of on every tick. That is exact only where the MCDS may sleep:
// every reader then runs between cycles or after the MCDS in a cycle, when
// no tapped word changes any more. The register file is read mid-cycle,
// so it pins the MCDS (pin) and with it the per-tick refresh.
func (m *MCDS) lazy() bool { return m.wake != nil && !m.everyCycle }

// poke makes the MCDS due on the current cycle, so NextWake sees a change
// to its configuration or to a core's retire log.
func (m *MCDS) poke() { m.wake.Reschedule(m.wake.Cycle()) }

// pin keeps the MCDS due every cycle from now on, its words refreshed on
// every tick; they are brought up to date first, for readers that run
// before the next tick.
func (m *MCDS) pin() {
	if m.lazy() {
		m.refresh()
	}
	m.everyCycle = true
	m.poke()
}

// refresh sets every word's last-tick value to its live value.
func (m *MCDS) refresh() {
	for i := range m.words {
		m.words[i].last = *m.words[i].p
	}
}

// emit encodes and stores one message, handling buffer overflow with the
// overflow-marker + re-sync protocol: after a loss, the next successful
// store is preceded by an Overflow message and per-source Sync re-anchors,
// so the tool-side decoder never desynchronizes. It reports whether the
// message was stored.
func (m *MCDS) emit(msg *tmsg.Msg) bool {
	if m.pendingLost > 0 && msg.Kind != tmsg.KindOverflow {
		of := tmsg.Msg{Kind: tmsg.KindOverflow, Src: 0, Lost: m.pendingLost}
		// Zero pendingLost before the store: a framer flush inside the
		// store may drop further messages, and those must accumulate into
		// a fresh count rather than be cleared below.
		m.pendingLost = 0
		if !m.store(&of) {
			m.pendingLost += of.Lost
			m.lose(msg) // still no room; drop the current message too
			return false
		}
	}
	if m.needSync[msg.Src] && msg.Kind != tmsg.KindSync && msg.Kind != tmsg.KindOverflow {
		// Re-anchor this source's delta state. Flow-traced cores emit
		// their own PC-correct sync; this generic anchor restores the
		// cycle base for counter/bus sources.
		sy := tmsg.Msg{Kind: tmsg.KindSync, Src: msg.Src, Cycle: msg.Cycle, PC: 0}
		if !m.store(&sy) {
			m.lose(msg)
			return false
		}
		m.needSync[msg.Src] = false
	}
	if !m.store(msg) {
		m.lose(msg)
		return false
	}
	if msg.Kind == tmsg.KindSync {
		m.needSync[msg.Src] = false
	}
	return true
}

// lose accounts a message the trace buffer refused. Every source then
// re-anchors, since the Overflow marker in front of the next stored
// message drops every anchor on the tool side. A refused Sync is not a
// lost message: it carries no trace content, and its source retries it
// in front of its next payload message.
func (m *MCDS) lose(msg *tmsg.Msg) {
	for i := range m.needSync {
		m.needSync[i] = true
	}
	if msg.Kind == tmsg.KindSync {
		return
	}
	m.MsgsLost++
	m.pendingLost++
}

// store encodes and appends one message, returning false on overflow.
//
// With framing enabled the message always enters the current frame (the
// framer decides its fate when that frame flushes), so store never fails —
// but a flush triggered by the append may drop a *previous* frame whose
// sink refused it, which is accounted like a direct overflow.
func (m *MCDS) store(msg *tmsg.Msg) bool {
	m.scratch = m.enc.Encode(m.scratch[:0], msg)
	if m.framer != nil {
		dropped := m.framer.Append(m.scratch)
		m.account(msg)
		if dropped > 0 {
			m.noteFrameDrop(dropped)
		}
		return true
	}
	if m.Sink != nil && !m.Sink.AppendTrace(m.scratch) {
		return false
	}
	m.account(msg)
	return true
}

// noteFrameDrop accounts n messages lost because the framer's sink refused
// a completed frame (trace buffer full at flush time). The recovery
// protocol is the same as for a direct overflow: the next emit inserts an
// Overflow marker and every source re-anchors its delta state.
func (m *MCDS) noteFrameDrop(n uint64) {
	m.MsgsLost += n
	m.pendingLost += n
	for i := range m.needSync {
		m.needSync[i] = true
	}
}

// account counts one stored message and mirrors it to OnEmit.
func (m *MCDS) account(msg *tmsg.Msg) {
	m.MsgsEmitted++
	m.BytesEmitted += uint64(len(m.scratch))
	m.SrcMsgs[msg.Src]++
	if msg.Kind == tmsg.KindSync {
		m.Reanchors++
	}
	if m.OnEmit != nil {
		m.emitted = *msg
		m.OnEmit(&m.emitted)
	}
}

// CoreObs is the observation block of one core.
type CoreObs struct {
	id  uint8
	cpu *tricore.CPU

	// FlowTrace emits program-flow messages; DataTrace emits data-access
	// messages for addresses within [DataLo, DataHi) (a zero range traces
	// every access). Both are trace-qualification switches the trigger
	// actions can flip at run time; the core reads them at every
	// retirement, so a flip catches the very next instruction.
	tricore.TraceSwitches
	DataLo uint32
	DataHi uint32

	iSinceFlow uint64
	needSync   bool
	lastSync   uint64
	// unanchored: the trace buffer refused this core's last anchor or
	// payload message, so its next anchor waits for an instruction that
	// emits a flow or data message instead of being retried on every
	// instruction while the buffer stays full.
	unanchored bool
}

// AddCore attaches an observation block to cpu under trace source id src.
// The core logs retired instructions only while the block's trace
// switches or a comparator consume them (observation is non-intrusive
// either way: the log is outside the timing model), and a log turning
// non-empty wakes the MCDS, so a switch flipped between runs is seen.
func (m *MCDS) AddCore(cpu *tricore.CPU, src uint8) *CoreObs {
	if src >= tmsg.MaxSources {
		panic(fmt.Sprintf("mcds: source id %d out of range", src))
	}
	c := &CoreObs{id: src, cpu: cpu, needSync: true}
	cpu.Trace = &c.TraceSwitches
	cpu.OnRetireLog = m.poke
	m.cores = append(m.cores, c)
	m.poke()
	return c
}

// tracing reports whether something consumes the core's retire log.
func (c *CoreObs) tracing() bool { return c.FlowTrace || c.DataTrace || c.cpu.TraceEnabled }

// Counters implements Observer.
func (c *CoreObs) Counters() *sim.Counters { return c.cpu.Counters() }

// SrcID implements Observer.
func (c *CoreObs) SrcID() uint8 { return c.id }

func (c *CoreObs) tick(m *MCDS, cycle uint64) {
	retired := c.cpu.DrainRetired()

	if m.syncEvery > 0 && cycle-c.lastSync >= m.syncEvery {
		c.needSync = true
	}

	for i := range retired {
		re := &retired[i]
		// Comparators bound to this core observe every retired
		// instruction (evaluated below via matchRetired).
		data := c.DataTrace && re.HasMem &&
			(c.DataLo == 0 && c.DataHi == 0 || re.EA >= c.DataLo && re.EA < c.DataHi)
		anchored := true
		if c.FlowTrace {
			if (c.needSync || m.needSync[c.id]) && (!c.unanchored || re.Taken || data) {
				sy := tmsg.Msg{Kind: tmsg.KindSync, Src: c.id, Cycle: re.Cycle, PC: re.PC}
				anchored = m.emit(&sy)
				c.unanchored = !anchored
				c.needSync = false
				c.lastSync = cycle
				c.iSinceFlow = 0
			}
			c.iSinceFlow++
			if re.Taken {
				fl := tmsg.Msg{Kind: tmsg.KindFlow, Src: c.id, Cycle: re.Cycle,
					ICount: c.iSinceFlow, PC: re.Target}
				anchored = c.send(m, &fl, anchored)
				c.iSinceFlow = 0
			}
		}
		if data {
			da := tmsg.Msg{Kind: tmsg.KindData, Src: c.id, Cycle: re.Cycle,
				Addr: re.EA, Data: re.Data, Write: re.Write}
			c.send(m, &da, anchored)
		}
	}

	// Comparators.
	for _, cmp := range m.comps {
		if cmp.Core == c {
			cmp.eval(m, retired, cycle)
		}
	}
}

// send emits one of the core's payload messages and reports whether the
// buffer took it. Without the anchor in front of it (the core's Sync, or
// the flow message of the same instruction) the message is lost unsent:
// it could not be decoded. A refused message leaves the core unanchored.
func (c *CoreObs) send(m *MCDS, msg *tmsg.Msg, anchored bool) bool {
	if !anchored {
		m.lose(msg)
		return false
	}
	if !m.emit(msg) {
		c.unanchored = true
		return false
	}
	return true
}

// BusObs is the observation block of a bus or another counter-bearing
// component (flash, DMA): anything exposing a *sim.Counters.
type BusObs struct {
	id   uint8
	ctrs *sim.Counters
}

// AddBus attaches a bus-style observation block reading ctrs under trace
// source id src.
func (m *MCDS) AddBus(ctrs *sim.Counters, src uint8) *BusObs {
	if src >= tmsg.MaxSources {
		panic(fmt.Sprintf("mcds: source id %d out of range", src))
	}
	return &BusObs{id: src, ctrs: ctrs}
}

// Counters implements Observer.
func (b *BusObs) Counters() *sim.Counters { return b.ctrs }

// SrcID implements Observer.
func (b *BusObs) SrcID() uint8 { return b.id }
