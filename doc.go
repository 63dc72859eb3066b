// Package repro is a from-scratch Go reproduction of "System Performance
// Optimization Methodology for Infineon's 32-Bit Automotive Microcontroller
// Architecture" (Mayer & Hellwig, DATE 2008).
//
// The library lives under internal/: a cycle-stepped TriCore-like SoC
// simulator (CPU, PCP, DMA, buses, embedded flash, caches, peripherals),
// the Emulation Device extension (MCDS trigger/trace block, Emulation
// Memory, DAP tool link), the Enhanced System Profiling methodology, a
// synthetic customer-application generator, and the architecture
// optimization methodology that ranks SoC improvement options by
// performance-gain/cost ratio.
//
// See README.md for the architecture overview, DESIGN.md for the system
// inventory and experiment mapping, and EXPERIMENTS.md for the measured
// results. cmd/experiments prints the full tables, and the
// internal/experiments tests check them against EXPERIMENTS.md.
package repro
