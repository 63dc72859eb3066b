package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// These tests assert the *shape* of each reproduced result — who wins and
// by roughly what factor — per the reproduction contract in DESIGN.md.

func TestE1WorkedExamples(t *testing.T) {
	tb := table(t, "E1", false)
	if r := tb.Metrics["dflash_rate"]; r < 0.055 || r > 0.065 {
		t.Errorf("data flash rate = %v, want ~0.06", r)
	}
	if f := tb.Metrics["exact_window_fraction"]; f < 0.9 {
		t.Errorf("exact-window fraction = %v, want >= 0.9", f)
	}
	if hr := tb.Metrics["hitrate_convention"]; hr != 96 {
		t.Errorf("hit-rate convention = %v, want 96", hr)
	}
}

func TestE2IPCBounds(t *testing.T) {
	tb := table(t, "E2", false)
	if m := tb.Metrics["ipc_max"]; m > 3 {
		t.Errorf("ipc max = %v exceeds 3", m)
	}
	if m := tb.Metrics["ipc_mean"]; m <= 0.2 || m >= 3 {
		t.Errorf("ipc mean = %v implausible", m)
	}
}

func TestE3BandwidthShape(t *testing.T) {
	tb := table(t, "E3", false)
	if r := tb.Metrics["sampling_over_rate"]; r < 2 {
		t.Errorf("external sampling only %vx the rate-message bytes, want >= 2x", r)
	}
	if r := tb.Metrics["trace_over_rate"]; r < 20 {
		t.Errorf("full trace only %vx the rate-message bytes, want >= 20x", r)
	}
}

func TestE4CascadeShape(t *testing.T) {
	tb := table(t, "E4", false)
	if f := tb.Metrics["bytes_saved_factor"]; f < 1.5 {
		t.Errorf("cascade saves only %vx, want >= 1.5x", f)
	}
	if c := tb.Metrics["low_ipc_coverage"]; c < 0.5 {
		t.Errorf("cascade keeps only %v of the low-IPC windows", c)
	}
}

func TestE5IntrusivenessShape(t *testing.T) {
	tb := table(t, "E5", false)
	if o := tb.Metrics["mcds_overhead"]; o != 0 {
		t.Errorf("MCDS overhead = %v, want exactly 0", o)
	}
	if o := tb.Metrics["sw_overhead"]; o < 0.02 {
		t.Errorf("software instrumentation overhead = %v, want >= 2%%", o)
	}
}

func TestE6RankingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet evaluation is slow")
	}
	tb := table(t, "E6", true)
	if tb.Metrics["best_is_flash_path"] != 1 {
		t.Error("top option is not on the CPU→flash path")
	}
	if g := tb.Metrics["best_meas_gain"]; g < 1.0 {
		t.Errorf("best option gains %v, want > 1", g)
	}
	if a := tb.Metrics["est_sign_agreement"]; a < 0.7 {
		t.Errorf("analytical estimates agree with measurement only %v of the time", a)
	}
	if n := tb.Metrics["est_sign_compared"]; n < 2 {
		t.Errorf("only %v options measured outside the ±0.5 %% band; the sign agreement compares too few", n)
	}
}

func TestE7FlashLeverShape(t *testing.T) {
	tb := table(t, "E7", false)
	if s := tb.Metrics["ws_sensitivity"]; s < 1.1 {
		t.Errorf("wait-state sensitivity = %v, want >= 1.1", s)
	}
	if r := tb.Metrics["flash_vs_sram_lever"]; r < 2 {
		t.Errorf("flash lever only %vx the SRAM control, want >= 2x", r)
	}
}

func TestE8OrderExact(t *testing.T) {
	tb := table(t, "E8", false)
	if v := tb.Metrics["order_violations"]; v != 0 {
		t.Errorf("order violations = %v, want 0", v)
	}
	if n := tb.Metrics["shared_events"]; n < 100 {
		t.Errorf("only %v shared-variable events traced", n)
	}
}

func TestF1FModelRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("generational loop is slow")
	}
	tb := table(t, "F1", true)
	if tb.Metrics["generations"] < 2 {
		t.Error("F-model produced no new generation")
	}
	if g := tb.Metrics["cumulative_gain"]; g < 1 {
		t.Errorf("cumulative gain = %v", g)
	}
}

// TestE10FaultRecoveryShape: a clean link delivers everything; 1 %
// corruption forces retries and abandons frames; and the delivered
// fraction falls strictly as corruption rises. Decode MB/s is wall
// clock and asserted on nowhere.
func TestE10FaultRecoveryShape(t *testing.T) {
	tb := table(t, "E10", false)
	if f := tb.Metrics["delivered_frac_clean"]; f != 1 {
		t.Errorf("clean delivered fraction = %v, want exactly 1", f)
	}
	if r := tb.Metrics["retries_1pct"]; r <= 0 {
		t.Errorf("1%% corruption caused %v retries, want > 0", r)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want one per corruption level (0%%, 0.1%%, 1%%)", len(tb.Rows))
	}
	col := func(name string) int {
		for i, h := range tb.Header {
			if h == name {
				return i
			}
		}
		t.Fatalf("no %q column in %v", name, tb.Header)
		return -1
	}
	gaps, abandoned, delivered := col("gaps"), col("abandoned"), col("delivered")
	if g := tb.Rows[0][gaps]; g != "0" {
		t.Errorf("clean run has %s gaps, want 0", g)
	}
	if a := tb.Rows[2][abandoned]; a == "0" {
		t.Error("1% corruption abandoned no frames")
	}
	prev := 101.0
	for _, row := range tb.Rows {
		var pct float64
		if _, err := fmt.Sscanf(row[delivered], "%f%%", &pct); err != nil {
			t.Fatalf("delivered %q: %v", row[delivered], err)
		}
		if pct >= prev {
			t.Errorf("delivered %s at %s corruption does not fall below %.1f%%", row[delivered], row[0], prev)
		}
		prev = pct
	}
}

func TestTableRender(t *testing.T) {
	tb := newTable("X", "test", "a", "bb")
	tb.addRow("1", "2")
	tb.Metrics["m"] = 1.5
	tb.note("n")
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"=== X: test ===", "a", "bb", "metric m", "note: n"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestA1RateBasisShape(t *testing.T) {
	tb := table(t, "A1", false)
	id := tb.Metrics["instr_basis_drift"]
	cd := tb.Metrics["cycle_basis_drift"]
	if cd < 2*id {
		t.Errorf("cycle-basis drift (%.3f) should far exceed instruction-basis drift (%.3f)", cd, id)
	}
	if id > 0.10 {
		t.Errorf("instruction-based rate drifted %.3f across hardware speeds, want ~stable", id)
	}
}

func TestA2CompressionShape(t *testing.T) {
	tb := table(t, "A2", false)
	if f := tb.Metrics["compression_factor"]; f < 2 {
		t.Errorf("compression factor = %v, want >= 2", f)
	}
}

func TestA3ArbitrationShape(t *testing.T) {
	tb := table(t, "A3", false)
	if tb.Metrics["conflicts_code-priority"] == 0 && tb.Metrics["conflicts_fcfs"] == 0 {
		t.Error("no port conflicts observed; the ablation target is idle")
	}
}

func TestA4BufferSizingShape(t *testing.T) {
	tb := table(t, "A4", false)
	small := tb.Metrics["loss_2kb"]
	large := tb.Metrics["loss_384kb"]
	if small <= large {
		t.Errorf("loss must fall with ring size: 2KB %.3f vs 384KB %.3f", small, large)
	}
	if small < 0.05 {
		t.Errorf("2KB ring loses only %.3f; expected heavy loss", small)
	}
}

// TestA4LossConservation: on A4's configuration every flow message is
// either stored or counted lost, at every ring size — the flow messages
// of a ring that never fills — and the lost count covers payload only: a
// re-anchor Sync the full ring refuses is retried, not counted, and only
// in front of the core's next payload message.
func TestA4LossConservation(t *testing.T) {
	ref, attempted := a4Trace(16 << 20)
	if ref.MsgsLost != 0 || attempted == 0 {
		t.Fatalf("unbounded ring: %d flow messages stored, %d lost", attempted, ref.MsgsLost)
	}
	for _, kb := range []uint32{2, 8, 32, 128, 384} {
		m, stored := a4Trace(kb << 10)
		if stored+m.MsgsLost != attempted {
			t.Errorf("%d KB: %d stored + %d lost flow messages != %d attempted", kb, stored, m.MsgsLost, attempted)
		}
		if m.MsgsLost > attempted {
			t.Errorf("%d KB: %d messages lost of %d payload messages attempted", kb, m.MsgsLost, attempted)
		}
		// Re-anchors are retried in front of payload messages, not on
		// every retired instruction.
		if refused := m.Sink.MsgsDropped; refused > 2*attempted {
			t.Errorf("%d KB: the ring refused %d appends for %d payload messages", kb, refused, attempted)
		}
	}
}

func TestE9MulticoreShape(t *testing.T) {
	tb := table(t, "E9", false)
	if s := tb.Metrics["rate_scaling"]; s < 1.5 || s > 2.5 {
		t.Errorf("rate volume scaling = %v, want ~2x for 2 cores", s)
	}
	if r := tb.Metrics["flow_over_rate_2core"]; r < 10 {
		t.Errorf("flow trace only %vx rate messages with 2 cores", r)
	}
	if tb.Metrics["order_preserved"] != 1 {
		t.Error("merged stream out of order")
	}
	if tb.Metrics["sources_2core"] < 2 {
		t.Error("second core invisible in the stream")
	}
}

func TestTableRenderJSON(t *testing.T) {
	tb := newTable("X", "test", "a", "b")
	tb.addRow("1", "2")
	tb.Metrics["m"] = 1.5
	var buf bytes.Buffer
	if err := tb.RenderJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got struct {
		ID      string             `json:"id"`
		Rows    [][]string         `json:"rows"`
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != "X" || len(got.Rows) != 1 || got.Metrics["m"] != 1.5 {
		t.Errorf("json round trip: %+v", got)
	}
}
