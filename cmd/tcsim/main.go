// Command tcsim runs a synthetic customer application on a simulated SoC
// preset and prints a performance summary from the ground-truth hardware
// counters (no MCDS involved — compare with tcprof, which measures the
// same quantities through the Emulation Device).
//
// Usage:
//
//	tcsim [-soc TC1797|TC1767] [-seed N] [-cycles N] [-code KB] [-tables KB]
//	      [-taps N] [-scratch] [-pcp] [-dma] [-eeprom] [-instrumented]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/runcfg"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/workload"
)

func main() {
	def := runcfg.Default()
	def.Cycles = 2_000_000
	rc := runcfg.BindBase(flag.CommandLine, def)
	codeKB := flag.Int("code", 24, "code footprint in KB")
	tableKB := flag.Int("tables", 32, "lookup table size in KB")
	taps := flag.Int("taps", 16, "filter length")
	scratch := flag.Bool("scratch", false, "map tables to the data scratchpad")
	onPCP := flag.Bool("pcp", false, "handle CAN on the PCP")
	viaDMA := flag.Bool("dma", false, "handle CAN via DMA")
	eeprom := flag.Bool("eeprom", false, "enable EEPROM emulation")
	instrumented := flag.Bool("instrumented", false, "inject software profiling instrumentation")
	flag.Parse()

	if err := rc.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg, err := rc.SoCConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	spec := workload.Spec{
		Name: "cli", Seed: rc.Seed, CodeKB: *codeKB, TableKB: *tableKB,
		FilterTaps: *taps, DiagBranches: 12,
		ADCPeriod: 2500, TimerPeriod: 9000, CANMeanGap: 5000,
		TablesInScratch: *scratch, CANOnPCP: *onPCP, CANViaDMA: *viaDMA,
		EEPROMEmul: *eeprom, Instrumented: *instrumented,
	}
	s := soc.New(cfg, rc.Seed)
	app, err := workload.Build(s, spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	app.RunFor(rc.Cycles)

	c := s.CPU.Counters()
	instr := c.Get(sim.EvInstrExecuted)
	cy := c.Get(sim.EvCycle)
	fmt.Printf("SoC %s  seed %d  horizon %d cycles\n", cfg.Name, rc.Seed, rc.Cycles)
	fmt.Printf("  program size        %d bytes (%d symbols)\n", app.Prog.Size(), len(app.Prog.Syms))
	fmt.Printf("  instructions        %d\n", instr)
	fmt.Printf("  IPC                 %.3f\n", float64(instr)/float64(cy))
	rate := func(e sim.Event) float64 { return float64(c.Get(e)) / float64(instr) }
	frac := func(e sim.Event) float64 { return float64(c.Get(e)) / float64(cy) }
	fmt.Printf("  icache hit rate     %.2f%% (%d misses)\n",
		100*float64(c.Get(sim.EvICacheHit))/float64(maxU(c.Get(sim.EvICacheAccess), 1)),
		c.Get(sim.EvICacheMiss))
	fmt.Printf("  data flash reads    %.4f /instr\n", rate(sim.EvDFlashRead))
	fmt.Printf("  scratch accesses    %.4f /instr\n", rate(sim.EvDScratchAccess))
	fmt.Printf("  SRAM accesses       %.4f /instr\n", rate(sim.EvDSRAMAccess))
	fmt.Printf("  periph accesses     %.4f /instr\n", rate(sim.EvDPeriphAccess))
	fmt.Printf("  stall cycles        %.1f%% (fetch %.1f%%, data %.1f%%)\n",
		100*frac(sim.EvStallCycle), 100*frac(sim.EvStallFetch), 100*frac(sim.EvStallData))
	fmt.Printf("  interrupts          %d (%.1f per 10k cycles)\n",
		c.Get(sim.EvInterruptEntry), 1e4*frac(sim.EvInterruptEntry))
	fmt.Printf("  flash port conflicts %d\n", s.Flash.Counters().Get(sim.EvFlashPortConflict))
	fmt.Printf("  DLMB contention     %d waits\n", s.DLMB.Counters().Get(sim.EvBusContention))
	fmt.Printf("  PCP instructions    %d\n", s.PCP.Counters().Get(sim.EvInstrExecuted))
	fmt.Printf("  DMA transfers       %d\n", s.DMA.Counters().Get(sim.EvDMATransfer))
	fmt.Printf("  CAN rx/drop         %d/%d\n", app.CAN.Received, app.CAN.Dropped)
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
