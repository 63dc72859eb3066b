package shard

import (
	"math/rand"
	"os"
	"os/signal"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"
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
		os.Stdout.Write(testLine(message{Kind: "hello", Version: ProtocolVersion}))
		time.Sleep(time.Hour)
		os.Exit(0)
	case "torn":
		// Emits a torn cell line (cut before its checksum) and exits 0:
		// the clean-exit-with-missing-cells case.
		os.Stdout.Write(testLine(message{Kind: "hello", Version: ProtocolVersion}))
		cell := testLine(message{Kind: "cell", Report: []byte(`{"schema_version":1,"app":"torn-worker"}`)})
		os.Stdout.Write(cell[:len(cell)-6])
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
		hb := testLine(message{Kind: "hb"})
		for {
			os.Stdout.Write(hb)
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
