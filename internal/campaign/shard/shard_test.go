package shard

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/profiling"
)

// TestMain doubles as the shard-worker helper binary: when
// SHARD_TEST_MODE is set, the test binary impersonates a worker process
// instead of running tests, so transport tests exec real child
// processes without needing tcfleet built. Modes beyond "worker" are
// deliberately broken workers for the supervisor to classify.
func TestMain(m *testing.M) {
	switch os.Getenv("SHARD_TEST_MODE") {
	case "worker":
		os.Exit(WorkerMain(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
	case "hang":
		// Says hello, then goes silent forever: the heartbeat-deadline
		// hang case.
		fmt.Println("//shard hello v=1 shard=0 cells=0 hash=")
		time.Sleep(time.Hour)
		os.Exit(0)
	case "torn":
		// Emits a torn record (no trailer) and exits 0: the
		// clean-exit-with-missing-cells case.
		fmt.Println("//shard hello v=1 shard=0 cells=0 hash=")
		fmt.Println(`{"schema_version": 1,`)
		fmt.Println(`  "app": "torn-worker"`)
		os.Exit(0)
	case "crash":
		os.Exit(3)
	case "flood", "floodcrash":
		// Streams heartbeats until its stdout blocks, and shrugs off
		// SIGTERM: a worker wedged in a write nobody drains. The
		// floodcrash variant dies on its own shortly after starting.
		signal.Ignore(syscall.SIGTERM)
		if os.Getenv("SHARD_TEST_MODE") == "floodcrash" {
			time.AfterFunc(100*time.Millisecond, func() { os.Exit(3) })
		}
		for {
			fmt.Println("//shard hb done=0")
		}
	}
	os.Exit(m.Run())
}

func TestSplit(t *testing.T) {
	for _, tc := range []struct {
		total, shards int
		want          [][]int
	}{
		{0, 4, [][]int{nil}},
		{3, 1, [][]int{{0, 1, 2}}},
		{8, 2, [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}},
		{5, 2, [][]int{{0, 1, 2}, {3, 4}}},
		{2, 8, [][]int{{0}, {1}}}, // shards clamp to total
		{7, 3, [][]int{{0, 1, 2}, {3, 4}, {5, 6}}},
	} {
		got := Split(tc.total, tc.shards)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Split(%d, %d) = %v, want %v", tc.total, tc.shards, got, tc.want)
		}
	}
	// Property: any split covers every index exactly once, contiguously.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		total, shards := rng.Intn(200), 1+rng.Intn(16)
		var flat []int
		for _, part := range Split(total, shards) {
			flat = append(flat, part...)
		}
		if len(flat) != total {
			t.Fatalf("Split(%d, %d) covers %d indices", total, shards, len(flat))
		}
		for j, idx := range flat {
			if idx != j {
				t.Fatalf("Split(%d, %d) not contiguous at %d", total, shards, j)
			}
		}
	}
}

func TestIndexSetRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		in   []int
		text string
	}{
		{nil, ""},
		{[]int{5}, "5"},
		{[]int{0, 1, 2, 3}, "0-3"},
		{[]int{0, 1, 2, 3, 7, 9, 10, 11, 12}, "0-3,7,9-12"},
	} {
		if got := FormatIndexSet(tc.in); got != tc.text {
			t.Errorf("FormatIndexSet(%v) = %q, want %q", tc.in, got, tc.text)
		}
		back, err := ParseIndexSet(tc.text)
		if err != nil {
			t.Fatalf("ParseIndexSet(%q): %v", tc.text, err)
		}
		if !reflect.DeepEqual(back, tc.in) {
			t.Errorf("ParseIndexSet(%q) = %v, want %v", tc.text, back, tc.in)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		seen := map[int]bool{}
		var set []int
		for j := 0; j < rng.Intn(40); j++ {
			idx := rng.Intn(100)
			if !seen[idx] {
				seen[idx] = true
				set = append(set, idx)
			}
		}
		sortInts(set)
		back, err := ParseIndexSet(FormatIndexSet(set))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, set) {
			t.Fatalf("round trip %v -> %q -> %v", set, FormatIndexSet(set), back)
		}
	}
	for _, bad := range []string{"x", "-1", "3-1", "1,,2", "1-"} {
		if _, err := ParseIndexSet(bad); err == nil {
			t.Errorf("ParseIndexSet(%q) accepted", bad)
		}
	}
}

// TestParseIndexSetStrict: the parser accepts exactly FormatIndexSet's
// output grammar. Descending, overlapping, or duplicated tokens mean
// the spec did not come from FormatIndexSet — a corrupted respawn
// assignment — and must be rejected with an error that names the
// offending token, not silently "repaired".
func TestParseIndexSetStrict(t *testing.T) {
	for _, tc := range []struct{ in, wantErr string }{
		{"5-2", "descending"},
		{"1,1", "overlaps or descends"},
		{"3,1-2", "overlaps or descends"},
		{"0-4,4", "overlaps or descends"},
		{"0-4,2-6", "overlaps or descends"},
		{"7,3", "overlaps or descends"},
		{"1-x", "bad index range"},
		{"2--4", "bad index range"},
	} {
		_, err := ParseIndexSet(tc.in)
		if err == nil {
			t.Errorf("ParseIndexSet(%q) accepted, want rejection", tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("ParseIndexSet(%q) = %v, want mention of %q", tc.in, err, tc.wantErr)
		}
	}
}

// FuzzParseIndexSet: whatever the parser accepts must be strictly
// ascending and must round-trip through FormatIndexSet to an equal
// slice — the two functions are inverses on the accepted language.
func FuzzParseIndexSet(f *testing.F) {
	f.Add("0-3,7,9-12")
	f.Add("5")
	f.Add("")
	f.Add("3-1")
	f.Add("0-4,2-6")
	f.Add("1,2,3")
	f.Fuzz(func(t *testing.T, s string) {
		set, err := ParseIndexSet(s)
		if err != nil {
			return
		}
		for i := 1; i < len(set); i++ {
			if set[i] <= set[i-1] {
				t.Fatalf("ParseIndexSet(%q) = %v is not strictly ascending", s, set)
			}
		}
		if len(set) > 0 && set[0] < 0 {
			t.Fatalf("ParseIndexSet(%q) yielded negative index %d", s, set[0])
		}
		back, err := ParseIndexSet(FormatIndexSet(set))
		if err != nil {
			t.Fatalf("canonical form %q of accepted %q rejected: %v", FormatIndexSet(set), s, err)
		}
		if !reflect.DeepEqual(back, set) && !(len(back) == 0 && len(set) == 0) {
			t.Fatalf("round trip %q -> %v -> %q -> %v", s, set, FormatIndexSet(set), back)
		}
	})
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestParseControl(t *testing.T) {
	for _, tc := range []struct {
		line string
		ok   bool
		want ctlMsg
	}{
		{"//shard hello v=1 shard=2 cells=4 hash=abc123", true, ctlMsg{kind: "hello", hash: "abc123"}},
		{"//shard hb done=3", true, ctlMsg{kind: "hb"}},
		{"//shard cell 17", true, ctlMsg{kind: "cell", idx: 17}},
		{`//shard fail 4 permanent 2 "bad preset \"X\""`, true,
			ctlMsg{kind: "fail", idx: 4, class: "permanent", attempts: 2, msg: `bad preset "X"`}},
		{"//shard bye done=4 failed=1", true, ctlMsg{kind: "bye"}},
		{`//shard span {"n":"cell:x","c":"session","s":12345,"d":678}`, true,
			ctlMsg{kind: "span", msg: `{"n":"cell:x","c":"session","s":12345,"d":678}`}},
		{"//shard span", false, ctlMsg{}},
		{"//shard cell", false, ctlMsg{}},
		{"//shard cell -3", false, ctlMsg{}},
		{"//shard fail 4 permanent", false, ctlMsg{}},
		{"//shard warp 9", false, ctlMsg{}},
		{"//crc32:deadbeef", false, ctlMsg{}},
		{"plain line", false, ctlMsg{}},
	} {
		got, ok := parseControl(tc.line)
		if ok != tc.ok {
			t.Errorf("parseControl(%q) ok = %v, want %v", tc.line, ok, tc.ok)
			continue
		}
		if ok && got != tc.want {
			t.Errorf("parseControl(%q) = %+v, want %+v", tc.line, got, tc.want)
		}
	}
}

// TestEmitterScannerRoundTrip: what the worker's emitter writes, the
// supervisor's scanner reads back — records verified, control lines on
// the side channel, nothing lost.
func TestEmitterScannerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	em := &emitter{w: &buf}
	em.control("hello v=%d shard=%d cells=%d hash=%s", ProtocolVersion, 0, 2, "h")
	reports := map[int]*profiling.RunReport{
		3: {Schema: profiling.ReportSchemaVersion, App: "a", SoC: "TC1797", Seed: 31, Cycles: 100, Resolution: 10, Confidence: 1},
		5: {Schema: profiling.ReportSchemaVersion, App: "b", SoC: "TC1767", Seed: 51, Cycles: 200, Resolution: 10, Confidence: 1},
	}
	for _, idx := range []int{3, 5} {
		em.control("hb done=%d", idx)
		if err := em.record(idx, reports[idx]); err != nil {
			t.Fatal(err)
		}
	}
	em.control("bye done=2 failed=0")

	sc := profiling.NewRecordScanner(&buf)
	pending := -1
	var ctl []string
	sc.Control = func(line string) {
		ctl = append(ctl, line)
		if c, ok := parseControl(line); ok && c.kind == "cell" {
			pending = c.idx
		}
	}
	got := map[int]*profiling.RunReport{}
	for {
		body, _, err := sc.Next()
		if err != nil {
			break
		}
		r, err := profiling.ReadRunReport(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got[pending] = r
		pending = -1
	}
	if sc.Skipped() != 0 {
		t.Errorf("clean emitter stream counted %d skips", sc.Skipped())
	}
	if len(got) != 2 || got[3] == nil || got[5] == nil {
		t.Fatalf("recovered records for cells %v, want 3 and 5", keys(got))
	}
	for idx, r := range got {
		if r.Seed != reports[idx].Seed || r.App != reports[idx].App {
			t.Errorf("cell %d record mangled in transit: %+v", idx, r)
		}
	}
	joined := strings.Join(ctl, "\n")
	for _, want := range []string{"hello", "hb", "cell 3", "cell 5", "bye"} {
		if !strings.Contains(joined, want) {
			t.Errorf("control channel missing %q:\n%s", want, joined)
		}
	}
}

func keys(m map[int]*profiling.RunReport) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestSpecArgs(t *testing.T) {
	s := Spec{
		Shard: 2, Shards: 4, Cells: "4-7", Workers: 3, Hash: "abc",
		HB: 250 * time.Millisecond, Spans: true, CellTimeout: time.Second, Retries: 1,
	}
	args := strings.Join(s.Args(), " ")
	for _, want := range []string{"-shard 2", "-cells 4-7", "-workers 3", "-hb 250ms", "-hash abc", "-spans", "-celltimeout 1s", "-retries 1"} {
		if !strings.Contains(args, want) {
			t.Errorf("Spec.Args() = %q, missing %q", args, want)
		}
	}
}
