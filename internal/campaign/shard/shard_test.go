package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"reflect"
	"syscall"
	"testing"
	"time"

	"repro/internal/campaign"
)

// TestMain doubles as the shard-worker helper binary: when
// SHARD_TEST_MODE is set, the test binary impersonates a worker process
// instead of running tests, so transport tests exec real child
// processes without needing tcfleet built. Modes beyond "worker" are
// deliberately broken workers for the supervisor to classify.
func TestMain(m *testing.M) {
	switch os.Getenv("SHARD_TEST_MODE") {
	case "worker":
		// What "tcfleet shard-worker" does: the spec on stdin, drained
		// gracefully on SIGTERM.
		spec, err := ReadSpec(os.Stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		code := RunWorker(ctx, spec, os.Stdout, os.Stderr)
		stop()
		os.Exit(code)
	case "hang":
		// Says hello, then goes silent forever: the heartbeat-deadline
		// hang case.
		os.Stdout.Write(testLine(campaign.Message{Kind: "hello", Version: ProtocolVersion}))
		time.Sleep(time.Hour)
		os.Exit(0)
	case "torn":
		// Emits a torn cell line (cut before its checksum) and exits 0:
		// the clean-exit-with-missing-cells case.
		os.Stdout.Write(testLine(campaign.Message{Kind: "hello", Version: ProtocolVersion}))
		cell := testLine(campaign.Message{Kind: "cell", Report: []byte(`{"schema_version":1,"app":"torn-worker"}`)})
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
		hb := testLine(campaign.Message{Kind: "hb"})
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

// FuzzReadSpec: the spec decoder takes bytes from another process or
// host. It must never panic, and whatever it accepts must re-encode and
// decode to an equal spec. The matrix is raw JSON that encoding
// compacts, so it is compared by its re-encoding.
func FuzzReadSpec(f *testing.F) {
	good, err := json.Marshal(Spec{
		Shard: 2, Matrix: json.RawMessage(`{"mixes":["lean"],"cycles":1000}`), Cells: []int{4, 5, 7},
		Workers: 3, Hash: "abc", HB: 250 * time.Millisecond, Spans: true, CellTimeout: time.Second, Retries: 1,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"Cells":[3,1],"Matrix":{ "seeds" : 2 }}`))
	f.Add([]byte(`{"Cells":"0-3"}`))
	f.Add([]byte(`{"Shard":1,"Extra":true}`))
	f.Add([]byte(`{"Matrix":null,"Cells":null}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := ReadSpec(bytes.NewReader(b))
		if err != nil {
			return
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec %q does not encode: %v", b, err)
		}
		back, err := ReadSpec(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded spec %q rejected: %v", enc, err)
		}
		if again, _ := json.Marshal(back); !bytes.Equal(again, enc) {
			t.Fatalf("round trip %q -> %q -> %q", b, enc, again)
		}
		s.Matrix, back.Matrix = nil, nil
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("round trip %q: %+v != %+v", b, s, back)
		}
	})
}
