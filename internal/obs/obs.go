// Package obs is the toolchain's self-observability layer: a
// zero-dependency metrics registry (counters and gauges) and a
// lightweight span tracer with a Chrome trace_event exporter.
//
// The paper instruments the TriCore with the MCDS — non-intrusive
// counters, cheap always-on rates, structured export. This package applies
// the same discipline to the simulator/trace pipeline itself, which we are
// scaling toward fleet-sized workloads. The simulator clock holds handles
// that cost one atomic add when enabled and one nil check when disabled;
// the trace path (EMEM ring, MCDS emitter, DAP link, block decoder) keeps
// plain statistics that the profiling session publishes into a registry.
//
// Disabled path: the nil *Registry (obs.Disabled) hands out nil metric
// handles, and every method on a nil handle is a no-op. Hot loops therefore
// keep unconditional instrumentation calls; whether they cost anything is
// decided once, at wiring time.
//
// All metric values are updated with atomic operations, so a live endpoint
// (Registry implements http.Handler) can serve snapshots concurrently with
// a running simulation without races.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// Disabled is the nil registry: every handle it returns is nil and every
// operation on those handles is a no-op. Use it to measure instrumentation
// overhead or to switch observability off without touching call sites.
var Disabled *Registry

// Counter is a monotonically increasing metric. The zero value is ready to
// use; a nil Counter is a disabled counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time value. The zero value reads 0; a nil Gauge is a
// disabled gauge.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the stored value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry owns a namespace of metrics. A nil Registry is the disabled
// registry: it returns nil handles and empty snapshots.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// New returns an empty, enabled registry.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// on the disabled registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on
// the disabled registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// CounterSnap is one counter in a snapshot.
type CounterSnap struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeSnap is one gauge in a snapshot.
type GaugeSnap struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Snapshot is a point-in-time copy of every metric, ordered by name within
// each kind — deterministic, so two snapshots of identical state serialize
// identically (golden tests, fleet diffing).
type Snapshot struct {
	Counters []CounterSnap `json:"counters,omitempty"`
	Gauges   []GaugeSnap   `json:"gauges,omitempty"`
}

// Snapshot captures the registry. On the disabled registry it returns the
// zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnap{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: name, Value: g.Value()})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	return s
}

// Counter returns the snapshotted value of the named counter (0, false
// when absent).
func (s *Snapshot) Counter(name string) (uint64, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// Gauge returns the snapshotted value of the named gauge (0, false when
// absent).
func (s *Snapshot) Gauge(name string) (float64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}

// WriteJSON serializes a snapshot of the registry to w, indented.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// ServeHTTP implements http.Handler: GET returns the current snapshot as
// JSON — the expvar-style live endpoint for long runs.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if err := r.WriteJSON(w); err != nil {
		http.Error(w, fmt.Sprintf("obs: %v", err), http.StatusInternalServerError)
	}
}
