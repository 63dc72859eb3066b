package irq

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

func TestPriorityArbitration(t *testing.T) {
	r := New()
	lo := r.AddSRN("lo", 2, ToCPU, 0x100)
	hi := r.AddSRN("hi", 9, ToCPU, 0x200)
	mid := r.AddSRN("mid", 5, ToCPU, 0x300)

	r.Request(lo)
	r.Request(hi)
	r.Request(mid)

	v := r.View(ToCPU)
	prio, vec, ok := v.PendingIRQ(0)
	if !ok || prio != 9 || vec != 0x200 {
		t.Fatalf("got %d/%#x/%v, want 9/0x200/true", prio, vec, ok)
	}
	v.AckIRQ(9)
	if hi.pending {
		t.Error("hi still pending after ack")
	}
	prio, _, ok = v.PendingIRQ(0)
	if !ok || prio != 5 {
		t.Errorf("next = %d, want 5", prio)
	}
	// Floor masks lower priorities.
	if _, _, ok := v.PendingIRQ(5); ok {
		t.Error("floor 5 must mask prio 5 and below... prio 5 is not > 5")
	}
	if _, _, ok := v.PendingIRQ(4); !ok {
		t.Error("floor 4 must expose prio 5")
	}
}

func TestRequestCollapse(t *testing.T) {
	r := New()
	s := r.AddSRN("s", 1, ToCPU, 0)
	r.Request(s)
	r.Request(s)
	r.Request(s)
	if s.Requests != 3 || s.Lost != 2 {
		t.Errorf("requests=%d lost=%d, want 3/2", s.Requests, s.Lost)
	}
	v := r.View(ToCPU)
	v.AckIRQ(1)
	if s.Services != 1 {
		t.Errorf("services = %d, want 1", s.Services)
	}
	if _, _, ok := v.PendingIRQ(0); ok {
		t.Error("collapsed requests must yield one service")
	}
}

func TestProviderIsolation(t *testing.T) {
	r := New()
	cpu := r.AddSRN("c", 3, ToCPU, 0)
	pcp := r.AddSRN("p", 3, ToPCP, 0) // same prio, different provider: allowed
	r.Request(cpu)
	r.Request(pcp)
	if _, ok := r.TakePending(ToDMA); ok {
		t.Error("DMA has no pending requests")
	}
	s, ok := r.TakePending(ToPCP)
	if !ok || s != pcp {
		t.Error("wrong PCP request")
	}
	if !cpu.pending {
		t.Error("CPU request must be untouched")
	}
}

func TestDuplicatePriorityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate priority must panic")
		}
	}()
	r := New()
	r.AddSRN("a", 1, ToCPU, 0)
	r.AddSRN("b", 1, ToCPU, 0)
}

func TestAccessors(t *testing.T) {
	r := New()
	r.AddSRN("a", 1, ToCPU, 0x10)
	for p, want := range map[Provider]string{ToCPU: "cpu", ToPCP: "pcp",
		ToDMA: "dma", ToCPU1: "cpu1", Provider(9): "provider-unknown"} {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q", p, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("priority 0 must panic")
		}
	}()
	r.AddSRN("zero", 0, ToCPU, 0)
}

// scanTop is the reference arbitration: a scan of every node for prov's
// highest-priority pending SRN.
func scanTop(r *Router, prov Provider) *SRN {
	var best *SRN
	for _, s := range r.srns {
		if s.Provider == prov && s.pending && (best == nil || s.Prio > best.Prio) {
			best = s
		}
	}
	return best
}

// TestCachedTopMatchesScan: after every random request, ack and take,
// each provider's cached top is the SRN a full scan finds,
// and PendingIRQ and HasPending answer from it.
func TestCachedTopMatchesScan(t *testing.T) {
	rng := sim.NewRNG(5)
	r := New()
	prios := make([]uint32, 24)
	for i := range prios {
		prios[i] = uint32(i + 1)
	}
	for i := len(prios) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		prios[i], prios[j] = prios[j], prios[i]
	}
	var srns []*SRN
	for i, p := range prios {
		srns = append(srns, r.AddSRN(fmt.Sprint("s", i), p, Provider(rng.Intn(4)), uint32(i)))
	}
	for step := 0; step < 20_000; step++ {
		s := srns[rng.Intn(len(srns))]
		prov := Provider(rng.Intn(4))
		switch op := rng.Intn(3); op {
		case 0:
			r.Request(s)
		case 1:
			r.View(s.Provider).AckIRQ(s.Prio)
		case 2:
			r.TakePending(prov)
		}
		for p := ToCPU; p <= ToCPU1; p++ {
			want := scanTop(r, p)
			if r.top[p] != want {
				t.Fatalf("step %d: provider %v cached top %v, scan finds %v", step, p, r.top[p], want)
			}
			if r.HasPending(p) != (want != nil) {
				t.Fatalf("step %d: provider %v HasPending = %v with top %v", step, p, r.HasPending(p), want)
			}
			floor := uint32(rng.Intn(len(srns) + 1))
			prio, vec, ok := r.View(p).PendingIRQ(floor)
			if wantOK := want != nil && want.Prio > floor; ok != wantOK ||
				ok && (prio != want.Prio || vec != want.Vector) {
				t.Fatalf("step %d: provider %v PendingIRQ(%d) = %d/%d/%v, scan finds %v", step, p, floor, prio, vec, ok, want)
			}
		}
	}
}
