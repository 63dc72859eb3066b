// Package profiling implements the paper's Enhanced System Profiling
// methodology (Section 5) on top of the MCDS: a declarative specification
// of the system parameters to measure (IPC, cache hit rates, flash access
// rates, interrupt rate, …), compiled into MCDS counter structures that
// measure everything dynamically, in parallel, non-intrusively and with
// configurable resolution; plus the tool-side assembly of the resulting
// rate messages into per-parameter time lines and run summaries.
package profiling

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/dap"
	"repro/internal/fault"
	"repro/internal/mcds"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/tmsg"
)

// ObsSel selects which observation block a parameter taps.
type ObsSel uint8

// Observation block selectors.
const (
	ObsCPU ObsSel = iota
	ObsPCP
	ObsDLMB
	ObsPLMB
	ObsSPB
	ObsFlash
	ObsDMA
	ObsCPU1 // second TriCore core (SecondCore configurations)
)

// Param is one profiled system parameter: an event rate measured against a
// resolution basis. A zero Basis means "per executed instruction"; IPC-style
// parameters use EvCycle.
type Param struct {
	Name  string
	Obs   ObsSel
	Event sim.Event
	Basis sim.Event // defaults to EvInstrExecuted on the CPU block
}

// StandardParams returns the paper's "essential parameters for CPU system
// performance of an engine control system": IPC, cache hit/miss rates,
// CPU access rates to flash/SRAM/scratchpads, interrupt rate — plus the
// stall and bus-contention rates the analysis sections use.
func StandardParams() []Param {
	return []Param{
		{Name: "ipc", Obs: ObsCPU, Event: sim.EvInstrExecuted, Basis: sim.EvCycle},
		{Name: "icache_miss", Obs: ObsCPU, Event: sim.EvICacheMiss},
		{Name: "icache_access", Obs: ObsCPU, Event: sim.EvICacheAccess},
		{Name: "dcache_miss", Obs: ObsCPU, Event: sim.EvDCacheMiss},
		{Name: "dcache_access", Obs: ObsCPU, Event: sim.EvDCacheAccess},
		{Name: "dflash_read", Obs: ObsCPU, Event: sim.EvDFlashRead},
		{Name: "iflash_access", Obs: ObsCPU, Event: sim.EvIFlashAccess},
		{Name: "dscratch_access", Obs: ObsCPU, Event: sim.EvDScratchAccess},
		{Name: "dsram_access", Obs: ObsCPU, Event: sim.EvDSRAMAccess},
		{Name: "dperiph_access", Obs: ObsCPU, Event: sim.EvDPeriphAccess},
		{Name: "interrupt", Obs: ObsCPU, Event: sim.EvInterruptEntry},
		{Name: "stall_fetch", Obs: ObsCPU, Event: sim.EvStallFetch, Basis: sim.EvCycle},
		{Name: "stall_data", Obs: ObsCPU, Event: sim.EvStallData, Basis: sim.EvCycle},
		{Name: "stall_any", Obs: ObsCPU, Event: sim.EvStallCycle, Basis: sim.EvCycle},
		{Name: "branch_miss", Obs: ObsCPU, Event: sim.EvBranchMiss},
		{Name: "bus_contention", Obs: ObsDLMB, Event: sim.EvBusContention},
		{Name: "flash_port_conflict", Obs: ObsFlash, Event: sim.EvFlashPortConflict},
	}
}

// PCPParams returns the PCP-side parameter set.
func PCPParams() []Param {
	return []Param{
		{Name: "pcp_ipc", Obs: ObsPCP, Event: sim.EvInstrExecuted, Basis: sim.EvCycle},
		{Name: "pcp_periph_access", Obs: ObsPCP, Event: sim.EvDPeriphAccess},
	}
}

// CPU1Params returns the second core's essential parameters (SecondCore
// configurations).
func CPU1Params() []Param {
	return []Param{
		{Name: "cpu1_ipc", Obs: ObsCPU1, Event: sim.EvInstrExecuted, Basis: sim.EvCycle},
		{Name: "cpu1_icache_miss", Obs: ObsCPU1, Event: sim.EvICacheMiss},
		{Name: "cpu1_dflash_read", Obs: ObsCPU1, Event: sim.EvDFlashRead},
		{Name: "cpu1_stall_any", Obs: ObsCPU1, Event: sim.EvStallCycle, Basis: sim.EvCycle},
		{Name: "cpu1_interrupt", Obs: ObsCPU1, Event: sim.EvInterruptEntry},
	}
}

// Spec configures a profiling session.
type Spec struct {
	// Resolution is the number of basis events per sample window (the
	// paper's "x": "Every x clock cycles, the number of executed
	// instructions is saved as a trace message ... where x is the
	// resolution").
	Resolution uint64
	Params     []Param

	// DAP models the tool link draining the EMEM during the run, at the
	// SoC's clock; without it the buffer is read out at the end (short
	// runs that fit on-chip).
	DAP bool

	// Framed hardens the trace path: messages travel in CRC/seq frames
	// (tmsg.Framer), the DAP uses the reliable NAK/retry drain protocol,
	// and the tool side decodes with a resynchronizing StreamDecoder that
	// quantifies losses as Gaps instead of failing. Costs the documented
	// <15 % framing overhead on the link.
	Framed bool

	// Fault attaches a fault-injection plan to the session (implies
	// Framed — an unframed stream cannot survive corruption).
	Fault *fault.Plan

	// Degrade enables the graceful-degradation controller: when the EMEM
	// fill level crosses the high watermark, every rate counter's
	// resolution is widened (fewer, coarser messages) until the level
	// recedes below the low watermark. Rates stay exact because each rate
	// message carries its actual basis.
	Degrade *DegradePolicy

	// Obs, when non-nil, receives the pipeline's self-observability
	// metrics: the simulator clock's own, and the session's table of the
	// EMEM ring, MCDS emitter, DAP link and block decoder statistics, read
	// from their plain counters after every RunCancelEvery-cycle chunk of
	// Run and once more in Result. A nil registry costs nothing.
	Obs *obs.Registry

	// Tracer, when non-nil, records the session phases (run → drain →
	// decode → assemble) as wall-clock spans, exportable in Chrome
	// trace_event format.
	Tracer *obs.Tracer
}

// framed reports whether the hardened trace path is active.
func (sp *Spec) framed() bool { return sp.Framed || sp.Fault.Active() }

// Session is a configured profiling run: an MCDS programmed from a Spec,
// attached to a SoC.
type Session struct {
	SoC  *soc.SoC
	MCDS *mcds.MCDS
	DAP  *dap.DAP
	Regs *mcds.RegFile // memory-mapped EEC access; nil until MapRegs

	// Injector is the active fault injector (nil without Spec.Fault).
	Injector *fault.Injector
	// Degrader is the graceful-degradation controller (nil without
	// Spec.Degrade).
	Degrader *Degrader

	spec     Spec
	params   []Param
	counters []*mcds.Counter
	cpuObs   *mcds.CoreObs
	pcpObs   *mcds.CoreObs
	cpu1Obs  *mcds.CoreObs
	metrics  []metric // published into spec.Obs; nil without a registry
}

// NewSession programs an MCDS for spec on s (which must be an ED variant —
// the production device has no EEC) and attaches it to the SoC clock.
func NewSession(s *soc.SoC, spec Spec) *Session {
	return newSession(s, spec, s.Clock.Attach)
}

// newSession is NewSession with the clock attachment supplied: tests wrap
// the observers to count their ticks.
func newSession(s *soc.SoC, spec Spec, attach func(string, sim.Ticker)) *Session {
	if s.EMEM == nil {
		panic("profiling: SoC has no EMEM (use an ED preset)")
	}
	if spec.Resolution == 0 {
		spec.Resolution = 1000
	}
	m := mcds.New(s.EMEM)
	sess := &Session{SoC: s, MCDS: m, spec: spec}
	sess.cpuObs = m.AddCore(s.CPU, 0)
	sess.pcpObs = m.AddCore(s.PCP.Core, 1)
	if s.CPU1 != nil {
		sess.cpu1Obs = m.AddCore(s.CPU1, 7)
	}
	busObs := map[ObsSel]*mcds.BusObs{}
	getBus := func(sel ObsSel) *mcds.BusObs {
		if b, ok := busObs[sel]; ok {
			return b
		}
		var ctrs *sim.Counters
		var src uint8
		switch sel {
		case ObsDLMB:
			ctrs, src = s.DLMB.Counters(), 2
		case ObsPLMB:
			ctrs, src = s.PLMB.Counters(), 3
		case ObsSPB:
			ctrs, src = s.SPB.Counters(), 4
		case ObsFlash:
			ctrs, src = s.Flash.Counters(), 5
		case ObsDMA:
			ctrs, src = s.DMA.Counters(), 6
		default:
			panic("profiling: bad bus selector")
		}
		b := m.AddBus(ctrs, src)
		busObs[sel] = b
		return b
	}

	for i, p := range spec.Params {
		var obs mcds.Observer
		switch p.Obs {
		case ObsCPU:
			obs = sess.cpuObs
		case ObsPCP:
			obs = sess.pcpObs
		case ObsCPU1:
			if sess.cpu1Obs == nil {
				panic("profiling: no second core on this SoC")
			}
			obs = sess.cpu1Obs
		default:
			obs = getBus(p.Obs)
		}
		basisEv := p.Basis
		if basisEv == sim.EvNone {
			basisEv = sim.EvInstrExecuted
		}
		// The basis is counted on the parameter's own core for per-core
		// rates (the paper's convention: each core's events relative to
		// its own executed instructions) and on CPU0 for bus-side taps.
		var basisObs mcds.Observer = sess.cpuObs
		switch p.Obs {
		case ObsPCP:
			if basisEv == sim.EvCycle {
				basisObs = obs
			}
		case ObsCPU1:
			basisObs = sess.cpu1Obs
		case ObsCPU:
			if basisEv == sim.EvCycle {
				basisObs = obs
			}
		}
		if id := i; id > 255 {
			panic("profiling: too many parameters")
		}
		c := mcds.NewRateCounter(p.Name, uint8(i),
			mcds.Tap{Obs: obs, Event: p.Event},
			mcds.Tap{Obs: basisObs, Event: basisEv},
			spec.Resolution)
		m.AddCounter(c)
		sess.counters = append(sess.counters, c)
		sess.params = append(sess.params, p)
	}

	if spec.framed() {
		m.EnableFraming()
	}

	attach("mcds", m)
	if spec.Fault.Active() {
		sess.Injector = fault.New(*spec.Fault, s.EMEM)
		// Attached before the DAP: a stall window opened at cycle c
		// already blocks that cycle's drain. A soft-error plan draws on
		// every cycle, so its injector is a plain ticker, never asked
		// for a wake.
		if spec.Fault.Mem.FlipProb > 0 {
			attach("fault", sim.TickerFunc(sess.Injector.Tick))
		} else {
			attach("fault", sess.Injector)
		}
	}
	if spec.Degrade != nil {
		sess.Degrader = newDegrader(*spec.Degrade, s.EMEM, sess.counters)
		attach("degrade", sess.Degrader)
	}
	if spec.DAP {
		sess.DAP = dap.New(s.Cfg.CPUFreqMHz, s.EMEM)
		sess.DAP.Reliable = spec.framed()
		if sess.Injector != nil {
			sess.DAP.Fault = sess.Injector
			sess.Injector.Drain = sess.DAP
		}
		attach("dap", sess.DAP)
	}

	if spec.Obs != nil {
		sess.metrics = newMetrics(spec.Obs, s, m, sess.DAP)
		s.Clock.Instrument(spec.Obs, 0)
	}
	return sess
}

// MapRegs maps the EEC register file onto the data bus, so a monitor
// routine on the TriCore can read and arm the counters (the paper's
// MLI/monitor access path), and returns it. Call it before the run. The
// MCDS then ticks every cycle: a mid-cycle register read sees the values
// as of the previous cycle, which only a per-cycle tick keeps.
func (sess *Session) MapRegs() *mcds.RegFile {
	if sess.Regs == nil {
		sess.Regs = sess.MCDS.RegFile(mem.MCDSRegBase)
		sess.SoC.DLMB.Map(mem.MCDSRegBase, sess.Regs.Size(), sess.Regs)
	}
	return sess.Regs
}

// Runner is anything that can advance the simulated system by a number of
// cycles (workload.App implements it).
type Runner interface {
	RunFor(cycles uint64)
}

// RunCancelEvery is the cancellation granularity of Session.Run, in
// cycles: the context is polled between ticker batches of this size, so a
// canceled measurement stops within one batch and the session can still be
// drained for a partial profile.
const RunCancelEvery = 4096

// Run advances the application by the measurement horizon under a "run"
// pipeline span, so the measurement phase appears on the exported trace
// timeline alongside drain/decode/assemble. Cancellation via ctx is
// checked every RunCancelEvery cycles; on cancellation Run returns the
// context's error and the session remains drainable — Result still
// assembles the profile of the cycles that did run (partial flush).
func (sess *Session) Run(ctx context.Context, app Runner, cycles uint64) error {
	sp := sess.spec.Tracer.Start("run", "pipeline")
	defer sp.End()
	for done := uint64(0); done < cycles; {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("profiling: run canceled after %d of %d cycles: %w",
				done, cycles, err)
		}
		chunk := cycles - done
		if chunk > RunCancelEvery {
			chunk = RunCancelEvery
		}
		app.RunFor(chunk)
		publish(sess.metrics)
		done += chunk
	}
	return nil
}

// CPUObs exposes the TriCore observation block for custom triggers.
func (sess *Session) CPUObs() *mcds.CoreObs { return sess.cpuObs }

// Counter returns the counter measuring the named parameter.
func (sess *Session) Counter(name string) *mcds.Counter {
	for i, p := range sess.params {
		if p.Name == name {
			return sess.counters[i]
		}
	}
	return nil
}

// Sample is one rate window of one parameter.
type Sample struct {
	Cycle uint64 // window end
	Basis uint64
	Count uint64

	// Suspect marks a window that overlaps a trace-loss gap: the sample
	// itself is exact (its message arrived intact), but neighbouring
	// windows vanished, so analyses that reason about *when* things
	// happened should down-weight it.
	Suspect bool
}

// Rate returns count/basis.
func (s Sample) Rate() float64 {
	if s.Basis == 0 {
		return 0
	}
	return float64(s.Count) / float64(s.Basis)
}

// Series is the time line of one parameter.
type Series struct {
	Param   string
	Samples []Sample
}

// Mean returns the basis-weighted mean rate over the series.
func (se *Series) Mean() float64 {
	var b, c uint64
	for _, s := range se.Samples {
		b += s.Basis
		c += s.Count
	}
	if b == 0 {
		return 0
	}
	return float64(c) / float64(b)
}

// Min and Max return the extreme window rates.
func (se *Series) Min() float64 {
	if len(se.Samples) == 0 {
		return 0
	}
	m := se.Samples[0].Rate()
	for _, s := range se.Samples[1:] {
		if r := s.Rate(); r < m {
			m = r
		}
	}
	return m
}

// Max returns the highest window rate.
func (se *Series) Max() float64 {
	m := 0.0
	for _, s := range se.Samples {
		if r := s.Rate(); r > m {
			m = r
		}
	}
	return m
}

// Confidence returns the fraction of windows untouched by trace loss
// (1.0 = every sample clean).
func (se *Series) Confidence() float64 {
	if len(se.Samples) == 0 {
		return 1
	}
	clean := 0
	for _, s := range se.Samples {
		if !s.Suspect {
			clean++
		}
	}
	return float64(clean) / float64(len(se.Samples))
}

// Profile is the decoded result of a profiling run.
type Profile struct {
	App        string
	Cycles     uint64
	Instr      uint64
	Series     map[string]*Series
	MsgsLost   uint64     // messages dropped at the emitter (buffer overflow)
	TraceBytes uint64     // bytes the MCDS emitted
	Msgs       []tmsg.Msg // the decoded trace stream, in arrival order

	// Framed-session loss accounting (zero on clean runs).
	MsgsDelivered uint64     // messages that reached the tool intact
	LinkLost      uint64     // messages lost or skipped between MCDS and tool
	Gaps          []tmsg.Gap // where in the timeline the losses sit
}

// Rate returns the run-aggregate rate of the named parameter.
func (p *Profile) Rate(name string) float64 {
	if se, ok := p.Series[name]; ok {
		return se.Mean()
	}
	return 0
}

// Names returns the parameter names, sorted.
func (p *Profile) Names() []string {
	var out []string
	for n := range p.Series {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Result drains remaining trace data, decodes every rate message and
// assembles the profile. Call after the measurement run. Result is the
// tool side: the DAP (or the end-of-run buffer read-out) only moves bytes,
// and every decode happens here.
//
// On framed sessions the stream is decoded by a resynchronizing decoder:
// decode never fails, losses are quantified in LinkLost and located in
// Gaps, and samples whose window overlaps a gap carry Suspect.
func (sess *Session) Result(appName string) (*Profile, error) {
	tr := sess.spec.Tracer

	// Drain: flush the partial frame (no-op unframed) and pull the
	// remaining buffer content to the tool side.
	drainSp := tr.Start("drain", "pipeline")
	sess.MCDS.FlushTrace()
	var raw []byte
	if sess.DAP != nil {
		sess.DAP.DrainAll()
		raw = sess.DAP.Received
	} else {
		raw = sess.SoC.EMEM.Drain(sess.SoC.EMEM.Level())
	}
	drainSp.End()
	publish(sess.metrics) // the drain is the trace path's last change

	// Decode: parse the received byte stream into messages. No more
	// arrive than the trace buffer took, so the output is sized once.
	decodeSp := tr.Start("decode", "pipeline")
	stored := sess.MCDS.MsgsEmitted
	if f := sess.MCDS.Framer(); f != nil {
		stored -= f.MsgsDropped
	}
	msgs := make([]tmsg.Msg, 0, stored)
	var stream *tmsg.StreamDecoder
	if sess.spec.framed() {
		stream = tmsg.NewStreamDecoder()
		msgs = stream.AppendFeed(msgs, raw)
		stream.Finalize(sess.MCDS.Framer().MsgsFramed)
	} else {
		var dec tmsg.Decoder
		var err error
		msgs, _, err = dec.AppendAll(msgs, raw)
		if err != nil {
			decodeSp.End()
			return nil, fmt.Errorf("profiling: decode: %w", err)
		}
	}
	decodeSp.End()

	// Assemble: bucket rate messages into per-parameter series and apply
	// the loss accounting.
	assembleSp := tr.Start("assemble", "pipeline")
	defer assembleSp.End()
	p := &Profile{
		App:        appName,
		Cycles:     sess.SoC.CPU.Counters().Get(sim.EvCycle),
		Instr:      sess.SoC.CPU.Counters().Get(sim.EvInstrExecuted),
		Series:     make(map[string]*Series),
		MsgsLost:   sess.MCDS.MsgsLost,
		TraceBytes: sess.MCDS.BytesEmitted,
		Msgs:       msgs,
	}
	// Count each parameter's windows, then fill: every series is
	// allocated once.
	counts := make([]int, len(sess.params))
	for _, m := range msgs {
		if m.Kind == tmsg.KindRate && int(m.CounterID) < len(counts) {
			counts[m.CounterID]++
		}
	}
	for _, prm := range sess.params {
		p.Series[prm.Name] = &Series{Param: prm.Name}
	}
	series := make([]*Series, len(sess.params))
	for i, prm := range sess.params {
		se := p.Series[prm.Name]
		if counts[i] > 0 {
			se.Samples = make([]Sample, 0, cap(se.Samples)+counts[i])
		}
		series[i] = se
	}
	for _, m := range msgs {
		if m.Kind == tmsg.KindRate && int(m.CounterID) < len(series) {
			se := series[m.CounterID]
			se.Samples = append(se.Samples, Sample{Cycle: m.Cycle, Basis: m.Basis, Count: m.Count})
		}
	}
	if stream != nil {
		p.MsgsDelivered = stream.Delivered
		p.LinkLost = stream.AccountedLost()
		p.Gaps = stream.Gaps
		for _, se := range p.Series {
			markSuspect(se, p.Gaps)
		}
	}
	return p, nil
}

// markSuspect flags every sample whose window (prev sample's end, own end]
// overlaps a loss gap: a gap that starts before the window ends and ends
// after it starts (an open gap never ends). It is one merge walk. A
// series' samples are in emission order, so their ends never decrease;
// the stream decoder opens each gap at its highest delivered cycle, so
// gap starts never decrease either. The walk keeps the latest end among
// the gaps started before the current sample's end.
func markSuspect(se *Series, gaps []tmsg.Gap) {
	var prev, latest uint64
	j := 0
	for i := range se.Samples {
		s := &se.Samples[i]
		for ; j < len(gaps) && gaps[j].StartCycle < s.Cycle; j++ {
			end := gaps[j].EndCycle
			if gaps[j].Open() {
				end = ^uint64(0)
			}
			latest = max(latest, end)
		}
		if latest > prev {
			s.Suspect = true
		}
		prev = s.Cycle
	}
}
