package isa

import "testing"

// FuzzParseAsm: the text assembler must reject garbage with errors, never
// panics.
func FuzzParseAsm(f *testing.F) {
	f.Add("movi r1, 10\nhalt")
	f.Add("x: beq r1, r2, x")
	f.Add(".org 0x100\n.word 0xFF")
	f.Add("ldw r1, [r2+4]")
	f.Add("; comment only")
	f.Add("ldw r1, [r2+5000]")
	f.Add("stw [r1-3000], r2")
	f.Add("beq r1, r2, 5000")
	f.Add("j 99999999")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ParseAsm(src, 0x1000)
		if err == nil && p == nil {
			t.Fatal("nil program without error")
		}
	})
}

// FuzzDecodeInstr: Decode accepts any 32-bit word without panicking, and
// valid instructions re-encode to a word that decodes identically.
func FuzzDecodeInstr(f *testing.F) {
	f.Add(uint32(0))
	f.Add(uint32(0xFFFFFFFF))
	f.Fuzz(func(t *testing.T, w uint32) {
		in := Decode(w)
		_ = in.String()
		if in.Valid() {
			again := Decode(in.Encode())
			if again != in {
				t.Fatalf("decode not stable: %+v vs %+v", in, again)
			}
		}
	})
}
