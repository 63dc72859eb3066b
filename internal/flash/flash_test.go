package flash

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/sim"
)

func testCfg() Config {
	cfg := DefaultConfig()
	cfg.Size = 1 << 16
	cfg.WaitStates = 5
	cfg.CodeBuffers = 2
	cfg.DataBuffers = 1
	return cfg
}

func read(t *testing.T, port bus.Target, now uint64, addr uint32) uint64 {
	t.Helper()
	req := &bus.Request{Addr: addr, Data: make([]byte, 4)}
	return port.Access(now, req)
}

func TestLoadAndReadBack(t *testing.T) {
	f := New(testCfg())
	f.Load(0x8000_0010, []byte{1, 2, 3, 4})
	req := &bus.Request{Addr: 0x8000_0010, Data: make([]byte, 4)}
	f.DataPort().Access(0, req)
	if req.Data[0] != 1 || req.Data[3] != 4 {
		t.Errorf("read back %v", req.Data)
	}
}

func TestDemandMissPaysWaitStates(t *testing.T) {
	cfg := testCfg()
	cfg.Prefetch = false
	f := New(cfg)
	if lat := read(t, f.CodePort(), 100, 0x8000_0000); lat != cfg.WaitStates {
		t.Errorf("miss latency = %d, want %d", lat, cfg.WaitStates)
	}
	// Same line again: buffer hit, zero device latency.
	if lat := read(t, f.CodePort(), 200, 0x8000_0004); lat != 0 {
		t.Errorf("buffer hit latency = %d, want 0", lat)
	}
	if f.ArrayReads != 1 {
		t.Errorf("array reads = %d, want 1", f.ArrayReads)
	}
}

func TestPrefetchHidesSequentialLatency(t *testing.T) {
	f := New(testCfg()) // prefetch on
	lat0 := read(t, f.CodePort(), 0, 0x8000_0000)
	if lat0 != 5 {
		t.Fatalf("first fetch latency = %d", lat0)
	}
	// Next line was prefetched during/after the first read; accessing it
	// late enough must be a free buffer hit.
	if lat := read(t, f.CodePort(), 50, 0x8000_0020); lat != 0 {
		t.Errorf("prefetched line latency = %d, want 0", lat)
	}
	if f.PrefetchIssued == 0 || f.PrefetchUseful == 0 {
		t.Errorf("prefetch stats: issued=%d useful=%d", f.PrefetchIssued, f.PrefetchUseful)
	}
	if f.Counters().Get(sim.EvIPrefetchHit) != 1 {
		t.Errorf("EvIPrefetchHit = %d", f.Counters().Get(sim.EvIPrefetchHit))
	}
}

func TestPrefetchInFlightPartialHit(t *testing.T) {
	f := New(testCfg())
	read(t, f.CodePort(), 0, 0x8000_0000) // demand done at 5, prefetch of line 1 done at 10
	// Request line 1 at cycle 6: prefetch in flight, ready at 10 → latency 4.
	if lat := read(t, f.CodePort(), 6, 0x8000_0020); lat != 4 {
		t.Errorf("in-flight prefetch hit latency = %d, want 4", lat)
	}
}

func TestPortConflictCounted(t *testing.T) {
	cfg := testCfg()
	cfg.Prefetch = false
	f := New(cfg)
	// Code port occupies the array [0,5); data port arrives at 2.
	read(t, f.CodePort(), 0, 0x8000_0000)
	lat := read(t, f.DataPort(), 2, 0x8000_1000)
	if lat != 3+5 { // waits 3 until array free, then 5 wait states
		t.Errorf("conflicting data read latency = %d, want 8", lat)
	}
	if f.Counters().Get(sim.EvFlashPortConflict) != 1 {
		t.Errorf("conflict count = %d", f.Counters().Get(sim.EvFlashPortConflict))
	}
}

func TestCodePriorityAbortsPrefetchForDemand(t *testing.T) {
	cfg := testCfg()
	cfg.Policy = ArbCodePriority
	f := New(cfg)
	read(t, f.CodePort(), 0, 0x8000_0000) // prefetch of line 1 in flight until 10
	// Demand read of a *different* line from the code port at 6: policy
	// allows aborting the speculative prefetch → starts immediately.
	if lat := read(t, f.CodePort(), 6, 0x8000_1000); lat != 5 {
		t.Errorf("demand-after-prefetch latency = %d, want 5", lat)
	}
	if f.PrefetchAborted != 1 {
		t.Errorf("aborted = %d, want 1", f.PrefetchAborted)
	}
	// The aborted prefetch line must not be usable.
	if lat := read(t, f.CodePort(), 50, 0x8000_0020); lat != 5 {
		t.Errorf("aborted prefetch line must re-read, latency = %d", lat)
	}
}

func TestFCFSDataWaitsForPrefetch(t *testing.T) {
	cfg := testCfg()
	cfg.Policy = ArbFCFS
	f := New(cfg)
	read(t, f.CodePort(), 0, 0x8000_0000) // prefetch holds array until 10
	lat := read(t, f.DataPort(), 6, 0x8000_1000)
	if lat != 4+5 { // waits until 10, then 5
		t.Errorf("FCFS data latency = %d, want 9", lat)
	}
	if f.PrefetchAborted != 0 {
		t.Error("FCFS must not abort prefetches")
	}
}

func TestDataPriorityAbortsPrefetch(t *testing.T) {
	cfg := testCfg()
	cfg.Policy = ArbDataPriority
	f := New(cfg)
	read(t, f.CodePort(), 0, 0x8000_0000)
	if lat := read(t, f.DataPort(), 6, 0x8000_1000); lat != 5 {
		t.Errorf("data-priority latency = %d, want 5", lat)
	}
	if f.PrefetchAborted != 1 {
		t.Errorf("aborted = %d", f.PrefetchAborted)
	}
}

func TestBufferLRUEviction(t *testing.T) {
	cfg := testCfg()
	cfg.Prefetch = false
	cfg.CodeBuffers = 2
	f := New(cfg)
	read(t, f.CodePort(), 0, 0x8000_0000)  // line 0
	read(t, f.CodePort(), 10, 0x8000_0020) // line 1
	read(t, f.CodePort(), 20, 0x8000_0000) // touch line 0 (now MRU)
	read(t, f.CodePort(), 30, 0x8000_0040) // line 2 evicts line 1
	if lat := read(t, f.CodePort(), 40, 0x8000_0000); lat != 0 {
		t.Errorf("line 0 must survive, latency = %d", lat)
	}
	if lat := read(t, f.CodePort(), 50, 0x8000_0020); lat != 5 {
		t.Errorf("line 1 must be evicted, latency = %d", lat)
	}
}

func TestWriteOccupiesArray(t *testing.T) {
	cfg := testCfg()
	cfg.Prefetch = false
	f := New(cfg)
	req := &bus.Request{Addr: 0x8000_0000, Data: []byte{9, 9, 9, 9}, Write: true}
	if lat := f.DataPort().Access(0, req); lat != writeCycles {
		t.Errorf("write latency = %d, want %d", lat, writeCycles)
	}
	// A read right after must wait for the program operation.
	if lat := read(t, f.CodePort(), 1, 0x8000_1000); lat != writeCycles-1+5 {
		t.Errorf("read-after-write latency = %d", lat)
	}
	rb := make([]byte, 4)
	f.ReadDirect(0x8000_0000, rb)
	if rb[0] != 9 {
		t.Error("write content lost")
	}
}

func TestPortsAreIndependentBuffers(t *testing.T) {
	cfg := testCfg()
	cfg.Prefetch = false
	f := New(cfg)
	read(t, f.CodePort(), 0, 0x8000_0000)
	// Same line from the data port is a separate buffer set → array read.
	if lat := read(t, f.DataPort(), 20, 0x8000_0000); lat != 5 {
		t.Errorf("data port must have own buffers, latency = %d", lat)
	}
}

func TestPolicyStringsAndConfig(t *testing.T) {
	for p, want := range map[ArbPolicy]string{ArbFCFS: "fcfs",
		ArbCodePriority: "code-priority", ArbDataPriority: "data-priority",
		ArbPolicy(9): "arb-unknown"} {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q", p, got)
		}
	}
	f := New(testCfg())
	if f.CodePort().Name() == "" || f.DataPort().Name() == "" {
		t.Error("port names empty")
	}
	if f.CodePort().Name() == f.DataPort().Name() {
		t.Error("port names must differ")
	}
}

func TestOutOfArrayAccessPanics(t *testing.T) {
	cfg := testCfg()
	f := New(cfg)
	defer func() {
		if recover() == nil {
			t.Error("access beyond array must panic")
		}
	}()
	read(t, f.DataPort(), 0, 0x8000_0000+cfg.Size)
}
