package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Tracer records wall-clock spans of the tool-side pipeline (run → drain →
// decode → assemble) and exports them in the Chrome trace_event JSON
// format, loadable in chrome://tracing and Perfetto.
//
// A nil Tracer is disabled: Start returns a nil Span and every Span method
// on nil is a no-op, so call sites never branch on whether tracing is on.
type Tracer struct {
	mu        sync.Mutex
	origin    time.Time
	spans     []spanRecord
	procNames map[int]string // pid row → display name metadata
}

type spanRecord struct {
	name  string
	cat   string
	start time.Duration // since origin
	dur   time.Duration
	pid   int // trace row; 0 means the tracer's own process (pid 1)
	tid   int // 0 means tid 1
}

// NewTracer returns an enabled tracer whose time origin is now.
func NewTracer() *Tracer {
	return &Tracer{origin: time.Now()}
}

// SpanExport is one completed span in wall-clock-absolute form — the
// wire format for cross-process span stitching. A worker process
// Export()s its spans, serializes each as one line of JSON, and the
// supervisor IngestSpan()s them into its own tracer: both processes
// share the host clock, so absolute nanoseconds are the common
// timebase that survives the pipe.
type SpanExport struct {
	Name  string `json:"n"`
	Cat   string `json:"c"`
	Start int64  `json:"s"` // wall-clock start, Unix nanoseconds
	Dur   int64  `json:"d"` // duration, nanoseconds
}

// Export returns the completed spans in absolute wall-clock form, in
// completion order. Empty on a nil tracer.
func (t *Tracer) Export() []SpanExport {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanExport, len(t.spans))
	for i, s := range t.spans {
		out[i] = SpanExport{
			Name:  s.name,
			Cat:   s.cat,
			Start: t.origin.Add(s.start).UnixNano(),
			Dur:   s.dur.Nanoseconds(),
		}
	}
	return out
}

// IngestSpan merges one exported span from another process into this
// tracer under the given trace pid row (the tracer's own spans are pid
// 1). The span's absolute start is rebased onto this tracer's origin.
// A no-op on a nil tracer.
func (t *Tracer) IngestSpan(pid int, sp SpanExport) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRecord{
		name:  sp.Name,
		cat:   sp.Cat,
		start: time.Unix(0, sp.Start).Sub(t.origin),
		dur:   time.Duration(sp.Dur),
		pid:   pid,
	})
}

// SetProcessName labels a pid row in the exported trace (emitted as a
// process_name metadata event, which the trace viewers render as the
// row title). A no-op on a nil tracer.
func (t *Tracer) SetProcessName(pid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.procNames == nil {
		t.procNames = map[int]string{}
	}
	t.procNames[pid] = name
}

// Span is one in-flight span; End completes it.
type Span struct {
	t     *Tracer
	name  string
	cat   string
	begin time.Time
}

// Start opens a span. The category groups spans in the trace viewer
// (e.g. "pipeline"). Returns nil on a nil tracer.
func (t *Tracer) Start(name, cat string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, cat: cat, begin: time.Now()}
}

// End completes the span and records it. A no-op on a nil span, and on a
// second call.
func (s *Span) End() {
	if s == nil || s.t == nil {
		return
	}
	t := s.t
	s.t = nil
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRecord{
		name:  s.name,
		cat:   s.cat,
		start: s.begin.Sub(t.origin),
		dur:   time.Since(s.begin),
	})
}

// TraceEvent is one event of the Chrome trace_event format ("X" = complete
// event with duration). Timestamps and durations are microseconds.
type TraceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// ChromeTrace is the top-level trace_event JSON object.
type ChromeTrace struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// Trace returns the completed spans as a Chrome trace object: first the
// process_name metadata rows (sorted by pid), then the spans sorted by
// start time (the viewer requires no order, but determinism keeps test
// output stable when spans are sequential). Ingested spans appear on
// their own pid rows; the tracer's native spans are pid 1.
func (t *Tracer) Trace() ChromeTrace {
	ct := ChromeTrace{TraceEvents: []TraceEvent{}, DisplayTimeUnit: "ms"}
	if t == nil {
		return ct
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	pids := make([]int, 0, len(t.procNames))
	for pid := range t.procNames {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		ct.TraceEvents = append(ct.TraceEvents, TraceEvent{
			Name: "process_name",
			Cat:  "__metadata",
			Ph:   "M",
			Pid:  pid,
			Tid:  1,
			Args: map[string]string{"name": t.procNames[pid]},
		})
	}
	meta := len(ct.TraceEvents)
	for _, s := range t.spans {
		pid, tid := s.pid, s.tid
		if pid == 0 {
			pid = 1
		}
		if tid == 0 {
			tid = 1
		}
		ct.TraceEvents = append(ct.TraceEvents, TraceEvent{
			Name: s.name,
			Cat:  s.cat,
			Ph:   "X",
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64(s.dur.Nanoseconds()) / 1e3,
			Pid:  pid,
			Tid:  tid,
		})
	}
	for i := meta + 1; i < len(ct.TraceEvents); i++ {
		for j := i; j > meta && ct.TraceEvents[j].Ts < ct.TraceEvents[j-1].Ts; j-- {
			ct.TraceEvents[j], ct.TraceEvents[j-1] = ct.TraceEvents[j-1], ct.TraceEvents[j]
		}
	}
	return ct
}

// WriteChromeTrace serializes the completed spans to w in the Chrome
// trace_event JSON format.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Trace())
}
