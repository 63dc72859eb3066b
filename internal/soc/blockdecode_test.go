package soc

import (
	"strings"
	"testing"

	"repro/internal/emem"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

func TestPresetLookup(t *testing.T) {
	for _, name := range PresetNames() {
		cfg, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		if cfg.Name != name {
			t.Errorf("Preset(%q).Name = %q", name, cfg.Name)
		}
	}
	_, err := Preset("TC9999")
	if err == nil {
		t.Fatal("unknown preset did not error")
	}
	for _, name := range PresetNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid preset %q", err, name)
		}
	}
	names := PresetNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("PresetNames not sorted: %v", names)
		}
	}
}

func TestSetBlockDecode(t *testing.T) {
	run := func(block bool) (uint64, uint64, uint32) {
		s := New(TC1797(), 1)
		if s.CPU.Decoder() != s.Decoder {
			t.Fatal("block decode is not the default")
		}
		s.SetBlockDecode(block)
		if got := s.CPU.Decoder() != nil; got != block {
			t.Fatalf("block decode = %v after SetBlockDecode(%v)", got, block)
		}
		a := isa.NewAsm(mem.FlashBase)
		a.Movw(1, mem.SRAMBase)
		a.Movw(3, 3000)
		a.Label("body")
		a.Ldw(2, 1, 0)
		a.Addi(2, 2, 1)
		a.Stw(2, 1, 0)
		a.Loop(3, "body")
		a.Halt()
		s.LoadProgram(mustAsm(t, a))
		s.ResetCPU(mem.FlashBase)
		cy, ok := s.RunUntilHalt(10_000_000)
		if !ok {
			t.Fatal("did not halt")
		}
		if block {
			// The hot loop may be served entirely from the executor's block
			// hint (no repeated lookups), but the block must have been built.
			if st := s.Decoder.Stats(); st.Misses == 0 || s.Decoder.Len() == 0 {
				t.Errorf("block cache unused: stats %+v, len %d", st, s.Decoder.Len())
			}
		}
		return cy, s.CPU.Counters().Get(sim.EvInstrExecuted), s.CPU.Reg(2)
	}
	cyRef, inRef, r2Ref := run(false)
	cy, in, r2 := run(true)
	if cy != cyRef || in != inRef || r2 != r2Ref {
		t.Errorf("chained dispatch changed behaviour: (%d,%d,%d) vs reference (%d,%d,%d)",
			cy, in, r2, cyRef, inRef, r2Ref)
	}
}

// TestChainedDispatchFollowsLinks runs the branchy ring, where nearly every
// cycle leaves a block through taken control flow, and requires almost
// every block entry to follow a chain link rather than the PC-keyed map:
// if chain capture or link following broke, behaviour would stay
// identical and only this count would show it.
func TestChainedDispatchFollowsLinks(t *testing.T) {
	s := branchySoC(t)
	s.Clock.Run(200_000)
	st := s.Decoder.Stats()
	lookups := st.Hits + st.Misses + st.ChainFollows
	if lookups == 0 || float64(st.ChainFollows) < 0.99*float64(lookups) {
		t.Fatalf("chain follows %d of %d block lookups, want >= 99%%: %+v",
			st.ChainFollows, lookups, st)
	}
}

// TestHotLoopCounts pins the work counts of the periph-heavy hot loop
// (the SoCHotLoop benchmark system): a warmed Clock.Run chunk allocates
// nothing, and one block decode serves every cycle through the
// executor's block hint. Behaviour stays identical if block decode breaks
// or something on the hot path starts allocating; only these counts show
// it.
func TestHotLoopCounts(t *testing.T) {
	s := periphHeavySoC(t)
	s.Clock.Run(200_000)
	if avg := testing.AllocsPerRun(10, func() { s.Clock.Run(5000) }); avg != 0 {
		t.Errorf("warmed hot loop allocates %v objects per 5000-cycle chunk, want 0", avg)
	}
	// The two invalidations are LoadProgram's cached and uncached ranges.
	want := isa.DecoderStats{Misses: 1, Invalidations: 2}
	if st := s.Decoder.Stats(); st != want {
		t.Errorf("decoder stats %+v, pinned %+v", st, want)
	}
}

// TestBlockDecodeInvalidationHooks exercises every invalidation edge the
// SoC assembly wires: program loads, overlay remaps, and bus writes into
// the EMEM overlay partition.
func TestBlockDecodeInvalidationHooks(t *testing.T) {
	s := New(TC1797().WithED(), 1)

	a := isa.NewAsm(mem.FlashBase)
	a.Movi(1, 5)
	a.Halt()
	s.LoadProgram(mustAsm(t, a))
	s.ResetCPU(mem.FlashBase)
	s.RunUntilHalt(10_000)
	if s.Decoder.Len() == 0 {
		t.Fatal("no blocks cached after a run")
	}

	// Reloading the image over the same range must drop the stale block
	// (flash.Load → OnWrite → InvalidateRange) and execute the new code.
	gen := s.Decoder.Gen()
	b := isa.NewAsm(mem.FlashBase)
	b.Movi(1, 9)
	b.Halt()
	s.LoadProgram(mustAsm(t, b))
	if s.Decoder.Gen() == gen {
		t.Fatal("program reload did not bump the decoder generation")
	}
	s.ResetCPU(mem.FlashBase)
	s.RunUntilHalt(10_000)
	if got := s.CPU.Reg(1); got != 9 {
		t.Fatalf("r1 = %d after reload, want 9 (stale block executed)", got)
	}

	// Overlay remaps change what flash addresses read as: InvalidateAll.
	gen = s.Decoder.Gen()
	s.Overlay.MapPage(emem.Page{FlashAddr: mem.FlashBase + 0x40000, EmemOff: 0, Size: 64})
	if s.Decoder.Gen() == gen || s.Decoder.Len() != 0 {
		t.Fatal("overlay remap did not invalidate the block cache")
	}

	// A CPU store into the EMEM overlay partition goes through the
	// code-write watch.
	c := isa.NewAsm(mem.FlashBase)
	c.Movw(1, mem.EMEMBase+0x80)
	c.Movi(2, 1)
	c.Stw(2, 1, 0)
	c.Halt()
	s.LoadProgram(mustAsm(t, c))
	s.ResetCPU(mem.FlashBase)
	gen = s.Decoder.Gen()
	s.RunUntilHalt(100_000)
	if s.Decoder.Gen() == gen {
		t.Fatal("EMEM overlay-partition write did not invalidate the block cache")
	}

	// LoadProgram into PSPR invalidates the written range.
	d := isa.NewAsm(mem.PSPRBase)
	d.Movi(1, 3)
	d.Halt()
	s.LoadProgram(mustAsm(t, d))
	s.ResetCPU(mem.PSPRBase)
	s.RunUntilHalt(10_000)
	gen = s.Decoder.Gen()
	d2 := isa.NewAsm(mem.PSPRBase)
	d2.Movi(1, 4)
	d2.Halt()
	s.LoadProgram(mustAsm(t, d2))
	if s.Decoder.Gen() == gen {
		t.Fatal("PSPR program load did not invalidate the block cache")
	}
	s.ResetCPU(mem.PSPRBase)
	s.RunUntilHalt(10_000)
	if got := s.CPU.Reg(1); got != 4 {
		t.Fatalf("r1 = %d after PSPR reload, want 4", got)
	}

	// InvalidateCaches covers the decoder too.
	s.Decoder.Block(mem.FlashBase, func(uint32) uint32 { return 0 })
	s.InvalidateCaches()
	if s.Decoder.Len() != 0 {
		t.Fatal("InvalidateCaches left decoded blocks behind")
	}
}
