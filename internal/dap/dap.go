// Package dap models the Device Access Port — the "two pin debug interface
// which allows robust high-speed connection" through which the external
// tool drains the EMEM trace buffer. Its defining property for the
// methodology is that its bandwidth is fixed by the pin interface and
// "does not scale with the CPU frequency" (paper Section 5): the DAP
// drains a constant number of bytes per wall-clock second, which shrinks
// relative to the CPU as the core clock rises.
package dap

import (
	"math/bits"

	"repro/internal/emem"
	"repro/internal/sim"
	"repro/internal/tmsg"
)

// The pin interface: a 40 MHz two-pin DAP moving 2 payload bits per clock,
// with 20 % protocol overhead (packetizing, turnaround).
const (
	clockMHz     = 40
	bitsPerClock = 2
	overheadPct  = 20
)

// bytesPerSecond is the effective payload bandwidth of the link: 10 MB/s
// raw, 8 MB/s after overhead, whatever the CPU clock.
const bytesPerSecond uint64 = clockMHz * 1_000_000 * bitsPerClock / 8 * (100 - overheadPct) / 100

// BytesPerMCycle returns the effective payload bytes the link moves per
// one million cycles of a cpuMHz core clock.
func BytesPerMCycle(cpuMHz uint64) uint64 {
	return bytesPerSecond / cpuMHz
}

// LinkFault injects transport faults into the DAP connection. The fault
// injector (internal/fault) implements it; a nil fault is a perfect link.
type LinkFault interface {
	// UpAt returns the first cycle at or after cycle on which the link is
	// usable: cycle itself, or the end of the cable stall / disconnect
	// window covering it. A down link drains nothing and earns no credit:
	// the bandwidth is simply lost.
	UpAt(cycle uint64) uint64
	// Transmit filters one frame on its way to the tool. It returns the
	// bytes as received — possibly corrupted or truncated — and false when
	// the frame vanished entirely.
	Transmit(cycle uint64, frame []byte) ([]byte, bool)
}

// Drain-protocol limits: bounded retries with exponential backoff. The
// backoff is expressed in CPU cycles (the simulation time base).
const (
	// DefaultMaxRetries bounds the retransmission attempts per frame
	// before the drain protocol gives up and moves on (the frame is then
	// accounted as lost by the tool-side cumulative counters).
	DefaultMaxRetries = 6
	// DefaultBackoffBase is the first retry delay; attempt k waits
	// base << min(k-1, 6) cycles.
	DefaultBackoffBase = 64
)

// DAP drains the EMEM trace ring at the fixed link rate and accumulates
// the bytes on the tool side, which decodes them.
//
// Two drain protocols are modelled. The raw protocol (Reliable == false)
// moves bytes verbatim — the original happy-path model. The reliable
// protocol (Reliable == true, for frame streams produced via
// tmsg.Framer) validates each frame's CRC on arrival and NAKs corrupted
// frames: the frame is retransmitted after a bounded exponential
// backoff, and abandoned after DefaultMaxRetries attempts (a frame
// corrupted in the EMEM itself never heals, so unbounded retry would
// wedge the link). Every
// retransmission costs link bandwidth; only the first copy of each frame
// rides the regular drain credit.
type DAP struct {
	Emem *emem.EMEM

	// Received is the tool-side byte stream (decode with tmsg.Decoder, or
	// tmsg.StreamDecoder in reliable/framed mode).
	Received []byte

	// Reliable selects the frame-aware CRC/NAK/retry drain protocol.
	Reliable bool
	// Fault, when non-nil, injects link faults (nil = perfect link). On a
	// clock, the fault must call Wake whenever a link-down window opens:
	// the DAP may be asleep, and must tick on the window's first cycle.
	Fault LinkFault

	hz           uint64 // CPU clock in Hz: a cycle earns bytesPerSecond credit, a byte costs hz
	credit       uint64 // fixed-point byte credit, scaled by hz
	TotalDrained uint64
	drainBuf     []byte // per-tick drain scratch, reused every cycle

	// Reliable-mode state.
	staging  []byte // drained bytes; staging[stagePos:] awaits framing
	stagePos int
	frame    []byte // reused buffer inflight points into
	inflight []byte // frame awaiting successful transmission
	attempts int
	retryAt  uint64
	lastTick uint64

	// Wake schedule. The credit is accrued in closed form for the cycles
	// the DAP sleeps through: next is the first cycle not yet accrued.
	wake   *sim.Waker
	next   uint64
	parked bool // asleep until the ring rises or the link goes down

	// Link-down accounting: linkDown cycles of closed windows, and the
	// latest window [downFrom, downTo), whose cycles count as they pass.
	linkDown         uint64
	downFrom, downTo uint64

	// Statistics.
	FramesDelivered uint64
	Retries         uint64 // NAKed transmission attempts
	FramesAbandoned uint64 // frames given up after DefaultMaxRetries
	GarbageBytes    uint64 // staging bytes discarded hunting for a frame
	BackoffCycles   uint64 // cycles spent waiting out NAK backoff windows
}

// New creates a DAP draining e against a cpuMHz core clock. An append
// into the empty ring wakes it.
func New(cpuMHz uint64, e *emem.EMEM) *DAP {
	d := &DAP{Emem: e, hz: cpuMHz * 1_000_000}
	e.OnRise = d.rise
	return d
}

// BindWake implements sim.WakeBinder; the DAP accrues credit from the
// cycle it is attached on.
func (d *DAP) BindWake(w *sim.Waker) {
	d.wake = w
	d.next = w.Cycle()
}

// NextWake implements sim.Sleeper. The DAP sleeps through a link-down
// window (its cycles earn no credit and count as they pass) and parks
// while the ring, the staging buffer and the in-flight frame are all
// empty. Otherwise it is due on the next cycle a byte comes due, or a
// NAKed frame's retry, whichever is first. Nothing else happens between
// those cycles: the credit grows by a fixed amount per cycle, a cycle
// without a whole byte due drains nothing, and a retransmission costs
// whole bytes of credit, never available between them.
func (d *DAP) NextWake(from uint64) uint64 {
	if d.wake == nil {
		return from // not bound yet: BindWake sets the accrual start
	}
	if d.Fault != nil {
		from = d.Fault.UpAt(from)
	}
	next := sim.NoWake
	if d.Emem.Level() > 0 || d.stagePos < len(d.staging) || d.inflight != nil {
		next = d.due(from)
		if d.inflight != nil && d.retryAt >= from {
			next = min(next, d.retryAt)
		}
	}
	d.parked = next == sim.NoWake
	return next
}

// Wake makes a sleeping DAP due on the current cycle. The fault injector
// calls it when a link-down window opens.
func (d *DAP) Wake() {
	d.parked = false
	d.wake.Reschedule(d.wake.Cycle())
}

// rise is the ring's OnRise hook: a parked DAP wakes on the first cycle a
// byte comes due.
func (d *DAP) rise() {
	if d.parked {
		d.parked = false
		d.wake.Reschedule(d.due(d.wake.Cycle()))
	}
}

// due returns the first cycle >= from (and past the last tick) on which a
// whole byte of credit comes due.
func (d *DAP) due(from uint64) uint64 {
	from = max(from, d.next)
	return from + (d.hz-d.creditAt(from)-1)/bytesPerSecond
}

// creditAt returns the credit after cycle from-1, from >= next: the
// cycles since the last tick each added the per-cycle credit and gave up
// whole bytes, so (credit + k·bps) mod hz remains. The product is
// 128-bit, so no horizon overflows it.
func (d *DAP) creditAt(from uint64) uint64 {
	if from <= d.next {
		return d.credit
	}
	hi, lo := bits.Mul64(from-d.next, bytesPerSecond)
	lo, carry := bits.Add64(lo, d.credit, 0)
	_, rem := bits.Div64((hi+carry)%d.hz, lo, d.hz)
	return rem
}

// LinkDownCycles returns the cycles the link has been down (no drain, no
// credit) up to the clock's current cycle, or past the last Tick when the
// DAP is driven without a clock.
func (d *DAP) LinkDownCycles() uint64 {
	now := max(d.lastTick+1, d.wake.Cycle())
	return d.linkDown + min(now, d.downTo) - d.downFrom
}

// Tick implements sim.Ticker: accumulate fractional byte credit per CPU
// cycle and drain whole bytes.
func (d *DAP) Tick(cycle uint64) {
	d.credit = d.creditAt(cycle)
	d.lastTick = cycle
	if d.Fault != nil {
		if up := d.Fault.UpAt(cycle); up > cycle {
			// Link down: no drain, no credit — the bandwidth is lost.
			// Credit accrues again from up.
			if cycle >= d.downTo {
				d.linkDown += d.downTo - d.downFrom
				d.downFrom = cycle
			}
			d.downTo = up
			d.next = up
			return
		}
	}
	d.next = cycle + 1
	d.credit += bytesPerSecond
	n := d.credit / d.hz
	if n > 0 {
		d.credit -= n * d.hz
	}
	if !d.Reliable {
		if n == 0 {
			return
		}
		b := d.Emem.DrainInto(d.drainBuf[:0], uint32(n))
		d.drainBuf = b
		d.Received = append(d.Received, b...)
		d.TotalDrained += uint64(len(b))
		return
	}
	if n > 0 {
		b := d.Emem.DrainInto(d.drainBuf[:0], uint32(n))
		d.drainBuf = b
		d.staging = append(d.staging, b...)
		d.TotalDrained += uint64(len(b))
	}
	d.pump(cycle, false)
}

// pump pushes complete frames from staging over the (possibly faulty)
// link. In flush mode (end of run) credit and backoff timing are ignored;
// the retry bound still applies.
func (d *DAP) pump(cycle uint64, flush bool) {
	// Drop the bytes the previous pump framed: one move per pump instead
	// of one per frame.
	if d.stagePos > 0 {
		d.staging = append(d.staging[:0], d.staging[d.stagePos:]...)
		d.stagePos = 0
	}
	for {
		if d.inflight == nil {
			d.inflight = d.nextFrame()
			if d.inflight == nil {
				return
			}
			d.attempts = 0
		}
		if !flush {
			if cycle < d.retryAt {
				return // backing off after a NAK
			}
			if d.attempts > 0 {
				// A retransmission costs link bandwidth; the first copy
				// was already paid for by the drain credit.
				cost := uint64(len(d.inflight)) * d.hz
				if d.credit < cost {
					return
				}
				d.credit -= cost
			}
		}

		out, ok := d.inflight, true
		if d.Fault != nil {
			out, ok = d.Fault.Transmit(cycle, d.inflight)
		}
		if ok && tmsg.ValidFrame(out) {
			d.Received = append(d.Received, out...)
			d.FramesDelivered++
			d.inflight = nil
			continue
		}

		// NAK: the tool rejects the frame (bad CRC or nothing arrived).
		d.attempts++
		d.Retries++
		if d.attempts > DefaultMaxRetries {
			// Give up — likely corrupted at the source (EMEM soft error),
			// where retransmission re-reads the same bad bytes. The
			// tool-side cumulative counters will account the loss.
			d.FramesAbandoned++
			d.inflight = nil
			continue
		}
		if !flush {
			shift := uint(d.attempts - 1)
			if shift > 6 {
				shift = 6
			}
			wait := uint64(DefaultBackoffBase) << shift
			d.retryAt = cycle + wait
			d.BackoffCycles += wait
			return
		}
	}
}

// nextFrame extracts one complete frame from staging, discarding garbage
// prefixes (a corrupted length or marker byte desynchronizes the staging
// stream until the next genuine marker). It returns nil when no complete
// frame is available yet. The frame is a copy in a reused buffer, valid
// until the next call.
func (d *DAP) nextFrame() []byte {
	skip, n := tmsg.NextFrame(d.staging[d.stagePos:])
	d.GarbageBytes += uint64(skip)
	d.stagePos += skip
	if n == 0 {
		return nil
	}
	d.frame = append(d.frame[:0], d.staging[d.stagePos:d.stagePos+n]...)
	d.stagePos += n
	return d.frame
}

// DrainAll empties the remaining buffer content (end of measurement run,
// when real time no longer matters). In reliable mode the remaining
// frames are pushed through the link with unlimited time — but still a
// bounded number of retries each.
func (d *DAP) DrainAll() {
	for d.Emem.Level() > 0 {
		b := d.Emem.Drain(d.Emem.Level())
		if d.Reliable {
			d.staging = append(d.staging, b...)
		} else {
			d.Received = append(d.Received, b...)
		}
		d.TotalDrained += uint64(len(b))
	}
	if d.Reliable {
		d.pump(d.lastTick, true)
	}
}
