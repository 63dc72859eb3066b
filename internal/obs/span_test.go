package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x", "y")
	if sp != nil {
		t.Fatal("nil tracer must return nil span")
	}
	sp.End() // must not panic
	ct := tr.Trace()
	if len(ct.TraceEvents) != 0 {
		t.Error("nil tracer trace must be empty")
	}
}

func TestSpanRecording(t *testing.T) {
	tr := NewTracer()
	run := tr.Start("run", "pipeline")
	time.Sleep(time.Millisecond)
	run.End()
	run.End() // double End must not duplicate
	tr.Start("decode", "pipeline").End()

	events := tr.Trace().TraceEvents
	want := []string{"run", "decode"}
	if len(events) != len(want) {
		t.Fatalf("spans = %+v, want %v", events, want)
	}
	for i := range want {
		if events[i].Name != want[i] {
			t.Errorf("span[%d] = %s, want %s", i, events[i].Name, want[i])
		}
	}
}

// TestChromeTraceFormat validates the exported JSON structurally against
// the Chrome trace_event contract: a top-level traceEvents array of
// complete ("X") events with name/cat and non-negative microsecond
// ts/dur, sorted by ts.
func TestChromeTraceFormat(t *testing.T) {
	tr := NewTracer()
	a := tr.Start("run", "pipeline")
	time.Sleep(2 * time.Millisecond)
	a.End()
	b := tr.Start("drain", "pipeline")
	b.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}

	// Decode generically, as the trace viewer would.
	var top map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	raw, ok := top["traceEvents"]
	if !ok {
		t.Fatal("missing traceEvents key")
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("traceEvents is not an array of objects: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	prevTs := -1.0
	for i, ev := range events {
		for _, key := range []string{"name", "cat", "ph", "ts", "dur", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Errorf("event %d missing %q", i, key)
			}
		}
		if ev["ph"] != "X" {
			t.Errorf("event %d ph = %v, want X", i, ev["ph"])
		}
		ts, _ := ev["ts"].(float64)
		dur, _ := ev["dur"].(float64)
		if ts < 0 || dur < 0 {
			t.Errorf("event %d negative ts/dur: %v/%v", i, ts, dur)
		}
		if ts < prevTs {
			t.Errorf("events not sorted by ts: %v after %v", ts, prevTs)
		}
		prevTs = ts
	}
	// The 2ms sleep must be visible in microseconds on the first span.
	if dur, _ := events[0]["dur"].(float64); dur < 1000 {
		t.Errorf("run span dur = %v µs, want >= 1000", dur)
	}
	if events[0]["name"] != "run" || events[1]["name"] != "drain" {
		t.Errorf("span order wrong: %v, %v", events[0]["name"], events[1]["name"])
	}
}

// TestSpanStitching exercises the cross-process merge path: a "worker"
// tracer exports its spans in absolute wall-clock form, a "supervisor"
// tracer ingests them under a distinct pid row, and the merged Chrome
// trace carries process_name metadata first, then every span on its
// proper row with rebased timestamps.
func TestSpanStitching(t *testing.T) {
	sup := NewTracer()
	s := sup.Start("execute", "campaign")

	worker := NewTracer()
	w := worker.Start("cell:w0", "session")
	time.Sleep(time.Millisecond)
	w.End()
	s.End()

	exported := worker.Export()
	if len(exported) != 1 {
		t.Fatalf("worker exported %d spans, want 1", len(exported))
	}
	// The wire format round-trips through one line of JSON.
	line, err := json.Marshal(exported[0])
	if err != nil {
		t.Fatal(err)
	}
	if bytes.ContainsRune(line, '\n') {
		t.Fatalf("span JSON is not single-line: %q", line)
	}
	var sp SpanExport
	if err := json.Unmarshal(line, &sp); err != nil {
		t.Fatal(err)
	}
	if sp.Name != "cell:w0" || sp.Cat != "session" || sp.Dur < int64(time.Millisecond) {
		t.Fatalf("span mangled on the wire: %+v", sp)
	}

	sup.SetProcessName(1, "supervisor")
	sup.SetProcessName(2, "shard 0")
	sup.IngestSpan(2, sp)

	ct := sup.Trace()
	if len(ct.TraceEvents) != 4 {
		t.Fatalf("trace has %d events, want 2 metadata + 2 spans", len(ct.TraceEvents))
	}
	// Metadata first, sorted by pid.
	for i, wantPid := range []int{1, 2} {
		ev := ct.TraceEvents[i]
		if ev.Ph != "M" || ev.Name != "process_name" || ev.Pid != wantPid {
			t.Errorf("event %d = %+v, want process_name metadata for pid %d", i, ev, wantPid)
		}
	}
	if ct.TraceEvents[0].Args["name"] != "supervisor" || ct.TraceEvents[1].Args["name"] != "shard 0" {
		t.Errorf("process names wrong: %+v", ct.TraceEvents[:2])
	}
	// Spans sorted by ts, each on its pid row, rebased into the
	// supervisor's timebase (both started after the supervisor's origin,
	// so every ts is non-negative and the worker span nests inside the
	// supervisor's).
	byName := map[string]TraceEvent{}
	for _, ev := range ct.TraceEvents[2:] {
		if ev.Ph != "X" {
			t.Errorf("span event ph = %q", ev.Ph)
		}
		byName[ev.Name] = ev
	}
	exec, cell := byName["execute"], byName["cell:w0"]
	if exec.Pid != 1 || cell.Pid != 2 {
		t.Errorf("pid rows: execute=%d cell=%d, want 1 and 2", exec.Pid, cell.Pid)
	}
	if cell.Ts < exec.Ts || cell.Ts+cell.Dur > exec.Ts+exec.Dur+1 {
		t.Errorf("ingested span [%v,%v] not nested in supervisor span [%v,%v]",
			cell.Ts, cell.Ts+cell.Dur, exec.Ts, exec.Ts+exec.Dur)
	}
}

func TestSpanStitchingNilSafe(t *testing.T) {
	var tr *Tracer
	if got := tr.Export(); got != nil {
		t.Errorf("nil Export = %v", got)
	}
	tr.IngestSpan(2, SpanExport{Name: "x"}) // must not panic
	tr.SetProcessName(1, "y")               // must not panic
}

func TestEmptyTracerStillValidTrace(t *testing.T) {
	tr := NewTracer()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var ct ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatal(err)
	}
	if ct.TraceEvents == nil {
		t.Error("traceEvents must serialize as [], not null")
	}
}
