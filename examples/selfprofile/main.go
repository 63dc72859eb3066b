// Selfprofile: the paper's late-development-phase access path (Section 3).
// In early development the external tool reads the EEC over the DAP; once
// the ECU is sealed in the car, "a tool can communicate over a user
// interface like CAN or FlexRay with a monitor routine, running on
// TriCore, which then accesses the EEC."
//
// Here the TriCore application profiles itself: a timer-driven monitor ISR
// reads the MCDS instruction counter through the memory-mapped EEC
// register file and transmits the value in its FlexRay slot, while the
// main loop keeps doing engine work.
package main

import (
	"fmt"
	"log"

	"repro/internal/irq"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/periph"
	"repro/internal/profiling"
	"repro/internal/soc"
)

func main() {
	s := soc.New(soc.TC1797().WithED(), 11)

	// FlexRay node: 10-slot static cycle of 2000 cycles; our TX slot is 4.
	fr, _ := s.AddFlexRay("flexray", 2000, 10, nil, 4, 8, 1, irq.ToCPU, 0)

	// Application: init (r10 = ISR save base), work loop, monitor ISR.
	a := isa.NewAsm(mem.FlashBase)
	a.Movw(10, mem.DSPRBase)
	a.Movi(1, 1)
	a.Mtcr(isa.CsrICR, 1) // enable interrupts
	a.Movi(9, 0)
	a.Movw(4, 150_000)
	a.Label("work")
	a.Addi(2, 2, 1)
	a.Mul(3, 2, 2)
	a.Addi(9, 9, 1)
	a.Blt(9, 4, "work")
	a.Halt()

	// Monitor ISR: uses r1/r2, saved to r10-relative slots.
	a.Label("monitor")
	a.Stw(1, 10, 0)
	a.Stw(2, 10, 4)
	a.Movw(1, mem.MCDSRegBase+0x10) // counter 0 register block
	a.Ldw(2, 1, 4)                  // total executed instructions
	a.Movw(1, fr.Base+periph.RegPeriod)
	a.Stw(2, 1, 0) // arm the FlexRay TX register
	a.Ldw(1, 10, 0)
	a.Ldw(2, 10, 4)
	a.Rfe()

	prog, err := a.Assemble()
	if err != nil {
		log.Fatal(err)
	}
	s.LoadProgram(prog)
	s.ResetCPU(prog.Base)

	var monitor uint32
	for _, sym := range prog.Syms {
		if sym.Name == "monitor" {
			monitor = sym.Addr
		}
	}
	s.AddTimer("montimer", 10_000, 500, 7, irq.ToCPU, monitor)

	// MCDS session: standard parameters, measured in parallel on-chip,
	// with the EEC register file the monitor reads mapped onto the bus.
	sess := profiling.NewSession(s, profiling.Spec{
		Resolution: 1000,
		Params:     profiling.StandardParams(),
	})
	sess.MapRegs()

	if _, ok := s.RunUntilHalt(100_000_000); !ok {
		log.Fatal("did not halt")
	}

	prof, err := sess.Result("selfprofile")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("monitor ISR ran and read the EEC %d times\n", sess.Regs.Reads)
	fmt.Printf("FlexRay frames transmitted with live counter values: %d\n", fr.TxFrames)
	fmt.Printf("in parallel, the full on-chip profile was captured: IPC %.3f, %d parameters\n",
		prof.Rate("ipc"), len(prof.Series))
	if fr.TxFrames == 0 || sess.Regs.Reads == 0 {
		log.Fatal("monitor path inactive")
	}
}
