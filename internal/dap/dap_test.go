package dap

import (
	"math/big"
	"testing"

	"repro/internal/emem"
	"repro/internal/sim"
	"repro/internal/tmsg"
)

func TestBandwidthArithmetic(t *testing.T) {
	// 40e6 * 2 / 8 = 10 MB/s raw; 8 MB/s after 20% overhead.
	if bytesPerSecond != 8_000_000 {
		t.Errorf("bytesPerSecond = %d", uint64(bytesPerSecond))
	}
	// 8e6 / 180e6 cycles ≈ 0.044 B/cycle → 44444 bytes per MCycle.
	if got := BytesPerMCycle(180); got != 44444 {
		t.Errorf("BytesPerMCycle = %d", got)
	}
}

func TestBandwidthDoesNotScaleWithCPU(t *testing.T) {
	// The paper's core constraint: the link is fixed; raising the CPU
	// clock shrinks the per-cycle drain budget.
	if BytesPerMCycle(360) >= BytesPerMCycle(90) {
		t.Error("per-cycle budget must shrink with CPU frequency")
	}
}

func TestDrainRate(t *testing.T) {
	e := emem.New(4096, 0, 0)
	e.AppendTrace(make([]byte, 4000))
	// 8 MB/s at 100 MHz = 0.08 B/cycle.
	d := New(100, e)
	for cy := uint64(0); cy < 10_000; cy++ {
		d.Tick(cy)
	}
	if d.TotalDrained < 790 || d.TotalDrained > 810 {
		t.Errorf("drained %d bytes in 10k cycles, want about 800", d.TotalDrained)
	}
}

func TestDrainAllAndDecode(t *testing.T) {
	e := emem.New(4096, 0, 0)
	var enc tmsg.Encoder
	var buf []byte
	msgs := []tmsg.Msg{
		{Kind: tmsg.KindSync, Src: 0, Cycle: 10, PC: 0x100},
		{Kind: tmsg.KindRate, Src: 0, Cycle: 20, CounterID: 1, Basis: 100, Count: 6},
	}
	for i := range msgs {
		buf = enc.Encode(buf[:0], &msgs[i])
		e.AppendTrace(buf)
	}
	d := New(180, e)
	d.DrainAll()
	var dec tmsg.Decoder
	out, _, err := dec.DecodeAll(d.Received)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[1].Count != 6 {
		t.Errorf("decoded %+v", out)
	}
	if e.Level() != 0 {
		t.Error("buffer not empty after DrainAll")
	}
}

func TestTickerInterface(t *testing.T) {
	var _ sim.Ticker = New(180, emem.New(64, 0, 0))
}

// TestCreditClosedForm checks the credit a sleeping DAP folds in on wake
// against per-cycle accrual, and against exact big-integer arithmetic
// for horizons whose product overflows 64 bits.
func TestCreditClosedForm(t *testing.T) {
	rng := sim.NewRNG(3)
	for trial := 0; trial < 200; trial++ {
		d := New(uint64(rng.Range(1, 400)), emem.New(64, 0, 0))
		bps, denom := bytesPerSecond, d.hz
		d.credit = rng.Uint64() % denom
		d.next = uint64(rng.Intn(1000))
		credit := d.credit
		for k := uint64(1); k <= 5000; k++ {
			credit = (credit + bps) % denom
			if got := d.creditAt(d.next + k); got != credit {
				t.Fatalf("trial %d: credit after %d skipped cycles = %d, per-cycle %d", trial, k, got, credit)
			}
		}
		// Random long horizons, and ones whose product ends just below
		// 2^64 so that adding the credit carries into the high word.
		for _, k := range []uint64{1<<62 + rng.Uint64()>>2, ^uint64(0) / bps, ^uint64(0)/bps + 1} {
			for _, c := range []uint64{d.credit, denom - 1} {
				d.credit = c
				want := new(big.Int).Mul(new(big.Int).SetUint64(k), new(big.Int).SetUint64(bps))
				want.Add(want, new(big.Int).SetUint64(c))
				want.Mod(want, new(big.Int).SetUint64(denom))
				if got := d.creditAt(d.next + k); got != want.Uint64() {
					t.Fatalf("trial %d: credit %d after %d skipped cycles = %d, exact %d", trial, c, k, got, want.Uint64())
				}
			}
		}
	}
}

// TestDAPTickZeroAlloc gates a warmed DAP tick, raw and reliable, at zero
// allocations: drain scratch, staging and frame buffers are reused.
func TestDAPTickZeroAlloc(t *testing.T) {
	for _, reliable := range []bool{false, true} {
		e := emem.New(1<<20, 0, 0)
		fillFrames(e, 40_000)
		d := New(10, e)
		d.Reliable = reliable
		d.Received = make([]byte, 0, 2*e.Level())
		cy := uint64(0)
		for ; cy < 20_000; cy++ {
			d.Tick(cy)
		}
		if allocs := testing.AllocsPerRun(5000, func() { d.Tick(cy); cy++ }); allocs != 0 {
			t.Errorf("reliable=%v: warmed DAP tick allocates %.2f objects, want 0", reliable, allocs)
		}
		if e.Level() == 0 || d.TotalDrained == 0 {
			t.Fatalf("reliable=%v: gate ran dry (level %d, drained %d)", reliable, e.Level(), d.TotalDrained)
		}
	}
}
