// Command tracedump decodes a raw MCDS trace byte stream (as written by
// tcprof -rawtrace) into human-readable messages and prints per-source
// statistics, including the reconstructed instruction count of
// flow-traced sources.
//
// With -image and -base, the reconstructed instruction stream of source 0
// is additionally disassembled against the program image (as written by
// tcasm -o).
//
// Usage:
//
//	tracedump [-max N] [-image prog.bin -base 0x80000000] [-disasm N] trace.bin
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/isa"
	"repro/internal/mcds"
	"repro/internal/tmsg"
	"repro/internal/vcd"
)

func main() {
	maxMsgs := flag.Int("max", 50, "messages to print (0 = none, -1 = all)")
	imagePath := flag.String("image", "", "program image for disassembly")
	imageBase := flag.Uint64("base", 0x8000_0000, "load address of the image")
	disasmN := flag.Int("disasm", 24, "reconstructed instructions to disassemble")
	vcdPath := flag.String("vcd", "", "export the stream as a VCD waveform (GTKWave etc.)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracedump [-max N] trace.bin")
		os.Exit(2)
	}
	raw, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var msgs []tmsg.Msg
	if n := tmsg.FrameLen(raw); n > 0 && n <= len(raw) && tmsg.ValidFrame(raw[:n]) {
		// A framed stream (tcprof -framed / -faults): decode through the
		// resynchronizing stream decoder and report the loss accounting.
		sd := tmsg.NewStreamDecoder()
		msgs = sd.Feed(raw)
		fmt.Printf("%d bytes (framed), %d messages delivered, %d skipped, %d lost, %d gaps\n",
			len(raw), sd.Delivered, sd.Skipped, sd.Lost, len(sd.Gaps))
	} else {
		var dec tmsg.Decoder
		var consumed int
		msgs, consumed, err = dec.DecodeAll(raw)
		if err != nil {
			fmt.Fprintf(os.Stderr, "decode error at byte %d: %v\n", consumed, err)
			os.Exit(1)
		}
		fmt.Printf("%d bytes, %d messages (%d trailing bytes incomplete)\n",
			len(raw), len(msgs), len(raw)-consumed)
	}

	kinds := map[tmsg.Kind]int{}
	var srcs [256]int // messages per source id, printed in id order
	var lost uint64
	for i := range msgs {
		m := &msgs[i]
		kinds[m.Kind]++
		srcs[m.Src]++
		if m.Kind == tmsg.KindOverflow {
			lost += m.Lost
		}
		if *maxMsgs < 0 || i < *maxMsgs {
			printMsg(m)
		}
	}
	fmt.Println("---")
	for k := tmsg.Kind(0); k <= tmsg.KindOverflow; k++ {
		if kinds[k] > 0 {
			fmt.Printf("  %-9s %d\n", k, kinds[k])
		}
	}
	for src, n := range srcs {
		if n == 0 {
			continue
		}
		pcs := mcds.Reconstruct(msgs, uint8(src))
		fmt.Printf("  source %d: %d messages", src, n)
		if len(pcs) > 0 {
			fmt.Printf(", %d instructions reconstructed", len(pcs))
		}
		fmt.Println()
	}
	if lost > 0 {
		fmt.Printf("  %d messages lost to buffer overflow\n", lost)
	}

	if *vcdPath != "" {
		f, err := os.Create(*vcdPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		changes, err := vcd.ExportTrace(f, msgs)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("VCD written to %s (%d value changes)\n", *vcdPath, changes)
	}

	if *imagePath != "" {
		image, err := os.ReadFile(*imagePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		pcs := mcds.Reconstruct(msgs, 0)
		fmt.Printf("--- disassembly of the first %d reconstructed instructions (source 0)\n", *disasmN)
		base := uint32(*imageBase)
		for i, pc := range pcs {
			if i >= *disasmN {
				break
			}
			off := pc - base
			if int(off)+4 > len(image) {
				fmt.Printf("  %08x:  <outside image>\n", pc)
				continue
			}
			w := uint32(image[off]) | uint32(image[off+1])<<8 |
				uint32(image[off+2])<<16 | uint32(image[off+3])<<24
			fmt.Printf("  %08x:  %08x  %s\n", pc, w, isa.Disasm(w))
		}
	}
}

func printMsg(m *tmsg.Msg) {
	switch m.Kind {
	case tmsg.KindSync:
		fmt.Printf("[%10d] src%d sync     pc=%#08x\n", m.Cycle, m.Src, m.PC)
	case tmsg.KindFlow:
		fmt.Printf("[%10d] src%d flow     +%d instr -> %#08x\n", m.Cycle, m.Src, m.ICount, m.PC)
	case tmsg.KindData:
		dir := "rd"
		if m.Write {
			dir = "wr"
		}
		fmt.Printf("[%10d] src%d data %s  %#08x = %#x\n", m.Cycle, m.Src, dir, m.Addr, m.Data)
	case tmsg.KindRate:
		fmt.Printf("[%10d] src%d rate     ctr%d %d/%d\n", m.Cycle, m.Src, m.CounterID, m.Count, m.Basis)
	case tmsg.KindTrigger:
		fmt.Printf("[%10d] src%d trigger  id=%d\n", m.Cycle, m.Src, m.TriggerID)
	case tmsg.KindOverflow:
		fmt.Printf("[%10d] ---- overflow %d messages lost\n", m.Cycle, m.Lost)
	}
}
