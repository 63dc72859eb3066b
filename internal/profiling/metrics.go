package profiling

import (
	"fmt"

	"repro/internal/dap"
	"repro/internal/mcds"
	"repro/internal/obs"
	"repro/internal/soc"
)

// metric is one trace-path statistic published into a session's registry:
// a counter or a gauge, and the read of the component's own plain field.
// The component counts each event once; the session only reads.
type metric struct {
	counter *obs.Counter
	gauge   *obs.Gauge
	read    func() uint64
	last    uint64 // a counter's source value already published (the creation baseline at first)
}

// newMetrics registers every trace-path metric in reg — a zero-valued one
// still appears — and records each counter's source value as its baseline,
// so the registry counts what happens from session creation on. The DAP
// metrics exist only on a session with a DAP.
func newMetrics(reg *obs.Registry, s *soc.SoC, m *mcds.MCDS, d *dap.DAP) []metric {
	var t []metric
	counter := func(name string, read func() uint64) {
		t = append(t, metric{counter: reg.Counter(name), read: read, last: read()})
	}
	gauge := func(name string, read func() uint64) {
		t = append(t, metric{gauge: reg.Gauge(name), read: read})
	}

	e := s.EMEM
	gauge("emem.ring.level", func() uint64 { return uint64(e.Level()) })
	gauge("emem.ring.peak", func() uint64 { return uint64(e.PeakLevel) })
	counter("emem.ring.overflows", func() uint64 { return e.MsgsDropped })
	counter("emem.ring.msgs_written", func() uint64 { return e.MsgsWritten })
	counter("emem.ring.bytes_written", func() uint64 { return e.BytesWritten })
	counter("emem.ring.bytes_drained", func() uint64 { return e.BytesDrained })
	counter("emem.soft_errors", func() uint64 { return e.SoftErrors })

	dec := s.Decoder
	counter("isa_block_hits", func() uint64 { return dec.Stats().Hits })
	counter("isa_block_misses", func() uint64 { return dec.Stats().Misses })
	counter("isa_block_evictions", func() uint64 { return dec.Stats().Evictions })
	counter("isa_block_invalidations", func() uint64 { return dec.Stats().Invalidations })
	counter("isa_block_chain_links", func() uint64 { return dec.Stats().ChainLinks })
	counter("isa_block_chain_severs", func() uint64 { return dec.Stats().ChainSevers })

	counter("mcds.msgs_emitted", func() uint64 { return m.MsgsEmitted })
	counter("mcds.bytes_emitted", func() uint64 { return m.BytesEmitted })
	counter("mcds.msgs_lost", func() uint64 { return m.MsgsLost })
	counter("mcds.reanchors", func() uint64 { return m.Reanchors })
	for i := range m.SrcMsgs {
		counter(fmt.Sprintf("mcds.src%d.msgs", i), func() uint64 { return m.SrcMsgs[i] })
	}

	if d != nil {
		counter("dap.bytes_drained", func() uint64 { return d.TotalDrained })
		counter("dap.frames_delivered", func() uint64 { return d.FramesDelivered })
		counter("dap.retries", func() uint64 { return d.Retries })
		counter("dap.frames_abandoned", func() uint64 { return d.FramesAbandoned })
		counter("dap.garbage_bytes", func() uint64 { return d.GarbageBytes })
		counter("dap.backoff_cycles", func() uint64 { return d.BackoffCycles })
		counter("dap.link_down_cycles", d.LinkDownCycles)
	}
	return t
}

// publish brings every metric up to its source: a counter grows by what
// its source counted since the last publish, a gauge takes the source's
// value. It runs on the simulation goroutine, which alone writes the
// sources; the registry's atomics carry the values to concurrent scrapes.
func publish(t []metric) {
	for i := range t {
		mt := &t[i]
		v := mt.read()
		if mt.gauge != nil {
			mt.gauge.Set(float64(v))
			continue
		}
		mt.counter.Add(v - mt.last)
		mt.last = v
	}
}
