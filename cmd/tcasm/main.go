// Command tcasm assembles text assembly for the simulated TriCore-like
// core and optionally executes it on a SoC preset, printing the final
// register state — a minimal development flow for writing custom test
// programs against the simulator.
//
// Usage:
//
//	tcasm [-base 0x80000000] [-o image.bin] [-run] [-cycles N] [-dump] prog.s
//
// With -run the program is loaded into the address its base selects
// (flash, program scratchpad, or PCP RAM) on a TC1797 and executed until
// HALT or the cycle limit. A fault of the program, such as an illegal
// instruction, is reported as "tcasm: ..." with exit status 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/isa"
	"repro/internal/mcds"
	"repro/internal/sim"
	"repro/internal/soc"
)

func main() {
	base := flag.Uint64("base", 0x8000_0000, "load address when the source has no .org")
	out := flag.String("o", "", "write the little-endian image to this file")
	run := flag.Bool("run", false, "execute on a TC1797 and print the result")
	cycles := flag.Uint64("cycles", 10_000_000, "cycle limit for -run")
	dump := flag.Bool("dump", false, "print the assembled disassembly")
	tracePath := flag.String("trace", "", "with -run: record the MCDS flow+data trace to this file")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tcasm [flags] prog.s")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	p, err := isa.ParseAsm(string(src), uint32(*base))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("assembled %d instructions at %#08x (%d symbols)\n",
		len(p.Words), p.Base, len(p.Syms))

	if *dump {
		for i, w := range p.Words {
			addr := p.Base + uint32(i)*4
			if sym := symAt(p, addr); sym != "" {
				fmt.Printf("%s:\n", sym)
			}
			fmt.Printf("  %08x:  %08x  %s\n", addr, w, isa.Disasm(w))
		}
	}
	if *out != "" {
		if err := os.WriteFile(*out, p.Bytes(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("image written to %s (%d bytes)\n", *out, p.Size())
	}
	if !*run {
		return
	}

	cfg := soc.TC1797()
	if *tracePath != "" {
		cfg = cfg.WithED()
	}
	s := soc.New(cfg, 1)
	var m *mcds.MCDS
	if *tracePath != "" {
		m = mcds.New(s.EMEM)
		obs := m.AddCore(s.CPU, 0)
		obs.FlowTrace = true
		obs.DataTrace = true
		s.Clock.Attach("mcds", m)
	}
	s.LoadProgram(p)
	s.ResetCPU(p.Base)
	cy, halted, err := runUntilHalt(s, *cycles)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcasm:", err)
		os.Exit(1)
	}
	if !halted {
		fmt.Fprintf(os.Stderr, "did not halt within %d cycles (pc=%#08x)\n", *cycles, s.CPU.PC())
		os.Exit(1)
	}
	c := s.CPU.Counters()
	fmt.Printf("halted after %d cycles, %d instructions (IPC %.3f)\n",
		cy, c.Get(sim.EvInstrExecuted),
		float64(c.Get(sim.EvInstrExecuted))/float64(c.Get(sim.EvCycle)))
	for r := 0; r < isa.NumRegs; r += 4 {
		fmt.Printf("  r%-2d=%08x  r%-2d=%08x  r%-2d=%08x  r%-2d=%08x\n",
			r, s.CPU.Reg(r), r+1, s.CPU.Reg(r+1), r+2, s.CPU.Reg(r+2), r+3, s.CPU.Reg(r+3))
	}
	if *tracePath != "" {
		raw := s.EMEM.Drain(s.EMEM.Level())
		if err := os.WriteFile(*tracePath, raw, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s (%d bytes, %d messages lost)\n",
			*tracePath, len(raw), m.MsgsLost)
	}
}

// runUntilHalt is s.RunUntilHalt with the program's faults — an illegal
// instruction, a shadow stack overflow — returned as an error. The cores
// raise those as string panics; any other panic is a simulator bug and
// propagates.
func runUntilHalt(s *soc.SoC, limit uint64) (cy uint64, halted bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			msg, ok := r.(string)
			if !ok {
				panic(r)
			}
			err = errors.New(msg)
		}
	}()
	cy, halted = s.RunUntilHalt(limit)
	return cy, halted, nil
}

func symAt(p *isa.Program, addr uint32) string {
	for _, s := range p.Syms {
		if s.Addr == addr {
			return s.Name
		}
	}
	return ""
}
