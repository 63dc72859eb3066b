// Package irq models the interrupt router of the SoC: peripherals raise
// service requests through Service Request Nodes (SRNs), each carrying a
// priority and a target service provider (the TriCore CPU, the PCP, or the
// DMA controller). The router arbitrates the highest-priority pending
// request per provider — the structure behind the paper's observation that
// in automotive hard real-time systems "most of the processing activities
// are triggered directly by interrupts".
package irq

import "fmt"

// Provider identifies a service provider an SRN can be routed to.
type Provider uint8

// Service providers.
const (
	ToCPU Provider = iota
	ToPCP
	ToDMA
	ToCPU1 // second TriCore core (multi-core variants)
)

// String names the provider.
func (p Provider) String() string {
	switch p {
	case ToCPU:
		return "cpu"
	case ToPCP:
		return "pcp"
	case ToDMA:
		return "dma"
	case ToCPU1:
		return "cpu1"
	}
	return "provider-unknown"
}

// SRN is one service request node.
type SRN struct {
	Name     string
	Prio     uint32 // service request priority number (higher wins; 0 invalid)
	Provider Provider
	Vector   uint32 // handler address (ToCPU), channel entry (ToPCP), channel id (ToDMA)

	pending bool

	// Statistics.
	Requests uint64 // requests raised
	Services uint64 // requests accepted by the provider
	Lost     uint64 // requests raised while already pending (collapsed)
}

// Router arbitrates SRNs per provider.
type Router struct {
	srns []*SRN

	// top[prov] is the highest-priority pending SRN for prov, or nil.
	// Request, ack and take keep it current, so a provider's per-cycle
	// arbitration compares one priority.
	top [4]*SRN

	// onRequest[prov] is called on every pending-flag rise for prov.
	// Wake-scheduled providers (PCP, DMA) register here so a request
	// arriving while they sleep pulls them out of the wake schedule.
	onRequest [4]func()
}

// New creates an empty router.
func New() *Router { return &Router{} }

// AddSRN registers a service request node. Priorities must be unique per
// provider (the hardware requires this); AddSRN panics on duplicates.
func (r *Router) AddSRN(name string, prio uint32, prov Provider, vector uint32) *SRN {
	if prio == 0 {
		panic("irq: priority 0 is reserved (disabled)")
	}
	for _, s := range r.srns {
		if s.Provider == prov && s.Prio == prio {
			panic(fmt.Sprintf("irq: duplicate priority %d for provider %v (%s vs %s)",
				prio, prov, s.Name, name))
		}
	}
	s := &SRN{Name: name, Prio: prio, Provider: prov, Vector: vector}
	r.srns = append(r.srns, s)
	return s
}

// Request raises a service request on s. Raising while already pending is
// collapsed into one service (and counted as Lost), like the hardware's
// single request flag.
func (r *Router) Request(s *SRN) {
	s.Requests++
	if s.pending {
		s.Lost++
		return
	}
	s.pending = true
	if t := r.top[s.Provider]; t == nil || s.Prio > t.Prio {
		r.top[s.Provider] = s
	}
	if fn := r.onRequest[s.Provider]; fn != nil {
		fn()
	}
}

// OnRequest registers fn to run on every pending-flag rise for prov
// (collapsed re-requests do not fire). A wake-scheduled provider uses this
// to reschedule itself; the hook must be idempotent and cheap.
func (r *Router) OnRequest(prov Provider, fn func()) { r.onRequest[prov] = fn }

// HasPending reports whether any SRN for prov is awaiting service
// (the provider-side idle test for wake scheduling).
func (r *Router) HasPending(prov Provider) bool { return r.top[prov] != nil }

// retop rescans prov's nodes for its highest-priority pending SRN.
func (r *Router) retop(prov Provider) {
	var best *SRN
	for _, s := range r.srns {
		if s.Provider == prov && s.pending {
			if best == nil || s.Prio > best.Prio {
				best = s
			}
		}
	}
	r.top[prov] = best
}

// service clears s's request flag: the provider accepted it.
func (r *Router) service(s *SRN) {
	s.pending = false
	s.Services++
	if r.top[s.Provider] == s {
		r.retop(s.Provider)
	}
}

// CPUView adapts the router to the tricore.InterruptSource interface for
// the given provider (ToCPU for TriCore, ToPCP for the PCP wrapper).
type CPUView struct {
	r    *Router
	prov Provider
}

// View returns the provider-specific interrupt source.
func (r *Router) View(prov Provider) *CPUView { return &CPUView{r: r, prov: prov} }

// PendingIRQ implements tricore.InterruptSource.
func (v *CPUView) PendingIRQ(cur uint32) (uint32, uint32, bool) {
	if s := v.r.top[v.prov]; s != nil && s.Prio > cur {
		return s.Prio, s.Vector, true
	}
	return 0, 0, false
}

// AckIRQ implements tricore.InterruptSource: the provider accepted the
// request at prio.
func (v *CPUView) AckIRQ(prio uint32) {
	for _, s := range v.r.srns {
		if s.Provider == v.prov && s.Prio == prio && s.pending {
			v.r.service(s)
			return
		}
	}
}

// TakePending removes and returns the highest pending SRN for prov (used
// by the DMA controller and the PCP channel dispatcher, which service one
// request at a time without a priority floor).
func (r *Router) TakePending(prov Provider) (*SRN, bool) {
	if s := r.top[prov]; s != nil {
		r.service(s)
		return s, true
	}
	return nil, false
}
