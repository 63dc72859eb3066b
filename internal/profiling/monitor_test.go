package profiling

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/soc"
)

// TestMonitorRoutineReadsEEC reproduces the paper's late-development-phase
// access path: a monitor routine running on the TriCore reads the EEC
// (MCDS register file) over the on-chip bus instead of the external tool
// using the DAP — "a tool can communicate over a user interface like CAN
// or FlexRay with a monitor routine, running on TriCore, which then
// accesses the EEC."
func TestMonitorRoutineReadsEEC(t *testing.T) {
	s := soc.New(soc.TC1797().WithED(), 1)

	a := isa.NewAsm(mem.FlashBase)
	// Warm-up work so the counters have content.
	a.Movw(3, 3000)
	a.Label("work")
	a.Addi(2, 2, 1)
	a.Loop(3, "work")
	// Monitor: read the MCDS ID, the total-IPC-source counter (counter 0
	// measures instructions) and the message count; store them to DSPR
	// where the "CAN reporting" would pick them up.
	a.Movw(1, mem.MCDSRegBase)
	a.Ldw(4, 1, 0) // RegID
	a.Movw(5, mem.DSPRBase+0x40)
	a.Stw(4, 5, 0)
	a.Movw(1, mem.MCDSRegBase+0x10) // counter 0 block
	a.Ldw(6, 1, 4)                  // regTotal
	a.Stw(6, 5, 4)
	a.Halt()
	p, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	s.LoadProgram(p)
	s.ResetCPU(p.Base)

	sess := NewSession(s, Spec{Resolution: 100, Params: []Param{
		StandardParams()[0], // ipc: Src = instructions
	}})
	sess.MapRegs()

	if _, ok := s.RunUntilHalt(1_000_000); !ok {
		t.Fatal("did not halt")
	}
	s.Clock.Step()

	id := s.DSPR.Read32(mem.DSPRBase + 0x40)
	if id != 0x4D43_4453 {
		t.Errorf("monitor read MCDS ID %#x", id)
	}
	total := s.DSPR.Read32(mem.DSPRBase + 0x44)
	if total < 3000 {
		t.Errorf("monitor read %d executed instructions, want >= 3000", total)
	}
	if sess.Regs.Reads < 2 {
		t.Errorf("register file reads = %d", sess.Regs.Reads)
	}
}

// TestMonitorArmsCounter verifies the write path: on-chip software can
// disarm and re-arm a counter through the control register.
func TestMonitorArmsCounter(t *testing.T) {
	s := soc.New(soc.TC1797().WithED(), 1)
	a := isa.NewAsm(mem.FlashBase)
	ctrBase := uint32(mem.MCDSRegBase + 0x10)
	// Disable counter 0, run some work, re-enable, run more work.
	a.Movw(1, ctrBase)
	a.Movi(2, 0)
	a.Stw(2, 1, 0) // CTRL = 0 (disable)
	a.Movw(3, 1000)
	a.Label("w1")
	a.Loop(3, "w1")
	a.Movi(2, 1)
	a.Stw(2, 1, 0) // CTRL = 1 (enable, resets the window)
	a.Movw(3, 1000)
	a.Label("w2")
	a.Loop(3, "w2")
	a.Ldw(4, 1, 4) // regTotal
	a.Movw(5, mem.DSPRBase+0x80)
	a.Stw(4, 5, 0)
	a.Halt()
	p, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	s.LoadProgram(p)
	s.ResetCPU(p.Base)

	sess := NewSession(s, Spec{Resolution: 100, Params: StandardParams()[:1]})
	sess.MapRegs()
	if _, ok := s.RunUntilHalt(1_000_000); !ok {
		t.Fatal("did not halt")
	}
	s.Clock.Step()

	c := sess.Counter("ipc")
	if !c.Enabled() {
		t.Error("counter not re-enabled")
	}
	// The counter missed the disabled phase: its total must be well below
	// the full instruction count but nonzero.
	total := s.DSPR.Read32(mem.DSPRBase + 0x80)
	if total == 0 {
		t.Fatal("counter never counted after re-arm")
	}
	if c.TotalSrc() > 1500 {
		t.Errorf("counter saw %d instructions; the disabled phase should be missing", c.TotalSrc())
	}
}
