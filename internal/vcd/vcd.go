// Package vcd writes IEEE 1364 Value Change Dump files, the waveform
// interchange format of every EDA viewer (GTKWave, Verdi, SimVision).
// The reproduction uses it to export decoded MCDS trace streams — program
// counters, data accesses, and rate-counter windows over the cycle axis —
// so a hardware engineer can inspect a profiling run with standard tools.
package vcd

import (
	"fmt"
	"io"
	"strings"
)

// Writer emits one VCD file. Declare variables first, then Emit value
// changes with non-decreasing timestamps, then Close.
type Writer struct {
	w      io.Writer
	vars   []*Var
	inBody bool
	last   uint64
	tsOpen bool
	err    error
}

// Var is one declared VCD variable.
type Var struct {
	id    string
	name  string
	width int
	last  string
	dirty bool
}

// NewWriter starts a VCD document on w with a 1ns timescale (1 simulated
// CPU cycle = 1ns on the waveform axis).
func NewWriter(w io.Writer, module string) *Writer {
	vw := &Writer{w: w}
	vw.printf("$date reproduction run $end\n")
	vw.printf("$version tricore-esp trace export $end\n")
	vw.printf("$timescale 1ns $end\n")
	vw.printf("$scope module %s $end\n", sanitize(module))
	return vw
}

func (vw *Writer) printf(format string, args ...any) {
	if vw.err != nil {
		return
	}
	_, vw.err = fmt.Fprintf(vw.w, format, args...)
}

func sanitize(s string) string {
	s = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '.':
			return r
		}
		return '_'
	}, s)
	if s == "" {
		s = "sig"
	}
	return s
}

// idFor converts a variable index into a short printable VCD identifier.
func idFor(i int) string {
	const alpha = "!\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	if i < len(alpha) {
		return string(alpha[i])
	}
	return string(alpha[i%len(alpha)]) + idFor(i/len(alpha))
}

// AddVar declares a vector variable of the given bit width (1..64). All
// declarations must precede the first Emit.
func (vw *Writer) AddVar(name string, width int) *Var {
	if vw.inBody {
		panic("vcd: AddVar after body started")
	}
	if width < 1 || width > 64 {
		panic("vcd: width out of range")
	}
	v := &Var{id: idFor(len(vw.vars)), name: sanitize(name), width: width}
	vw.vars = append(vw.vars, v)
	vw.printf("$var wire %d %s %s $end\n", width, v.id, v.name)
	return v
}

func (vw *Writer) beginBody() {
	if vw.inBody {
		return
	}
	vw.inBody = true
	vw.printf("$upscope $end\n$enddefinitions $end\n")
	// Initial values: all x.
	vw.printf("$dumpvars\n")
	for _, v := range vw.vars {
		vw.printf("b%s %s\n", strings.Repeat("x", v.width), v.id)
	}
	vw.printf("$end\n")
}

// Emit records variable v taking value val at the given cycle. Cycles must
// be non-decreasing across all variables.
func (vw *Writer) Emit(cycle uint64, v *Var, val uint64) {
	vw.beginBody()
	if cycle < vw.last {
		panic(fmt.Sprintf("vcd: time went backwards (%d < %d)", cycle, vw.last))
	}
	if cycle != vw.last || !vw.tsOpen {
		vw.printf("#%d\n", cycle)
		vw.last = cycle
		vw.tsOpen = true
	}
	bits := fmt.Sprintf("%b", val)
	if v.last == bits {
		return
	}
	v.last = bits
	vw.printf("b%s %s\n", bits, v.id)
}

// Close finishes the document and returns any accumulated write error.
func (vw *Writer) Close() error {
	vw.beginBody()
	return vw.err
}
