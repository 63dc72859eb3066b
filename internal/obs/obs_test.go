package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	if r.Counter("a.count") != c {
		t.Error("same name must return the same counter")
	}
	g := r.Gauge("a.level")
	g.Set(3.5)
	if got := g.Value(); got != 3.5 {
		t.Errorf("gauge = %v, want 3.5", got)
	}
	if r.Gauge("a.level") != g {
		t.Error("same name must return the same gauge")
	}
}

func TestDisabledRegistryIsFree(t *testing.T) {
	var r *Registry // == Disabled
	c := r.Counter("x")
	g := r.Gauge("x")
	if c != nil || g != nil {
		t.Fatal("disabled registry must return nil handles")
	}
	// Every operation on nil handles must be a safe no-op.
	c.Inc()
	c.Add(7)
	g.Set(1)
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil handles must read zero")
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges) != 0 {
		t.Error("disabled snapshot must be empty")
	}
	if Disabled != nil {
		t.Error("Disabled must be the nil registry")
	}
}

func TestSnapshotDeterministicOrdering(t *testing.T) {
	r := New()
	// Create in non-sorted order.
	r.Counter("z").Add(1)
	r.Counter("a").Add(2)
	r.Counter("m").Add(3)
	r.Gauge("beta").Set(1)
	r.Gauge("alpha").Set(2)

	s := r.Snapshot()
	wantC := []string{"a", "m", "z"}
	for i, c := range s.Counters {
		if c.Name != wantC[i] {
			t.Errorf("counter[%d] = %s, want %s", i, c.Name, wantC[i])
		}
	}
	if s.Gauges[0].Name != "alpha" {
		t.Error("gauges not sorted by name")
	}

	// Two snapshots of the same state must serialize identically.
	j1, _ := json.Marshal(r.Snapshot())
	j2, _ := json.Marshal(r.Snapshot())
	if !bytes.Equal(j1, j2) {
		t.Error("snapshot serialization is not deterministic")
	}

	if v, ok := s.Counter("m"); !ok || v != 3 {
		t.Errorf("Counter(m) = %d,%v", v, ok)
	}
	if v, ok := s.Gauge("alpha"); !ok || v != 2 {
		t.Errorf("Gauge(alpha) = %v,%v", v, ok)
	}
	if _, ok := s.Counter("missing"); ok {
		t.Error("missing counter reported present")
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			g := r.Gauge("hw")
			for k := 0; k < 1000; k++ {
				c.Inc()
				g.Set(float64(k))
				r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("hw").Value(); got != 999 {
		t.Errorf("gauge = %v, want 999 (every writer's last value)", got)
	}
}

func TestServeHTTP(t *testing.T) {
	r := New()
	r.Counter("req.count").Add(5)
	r.Gauge("ring.level").Set(0.25)
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var s Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatalf("endpoint does not serve valid JSON: %v", err)
	}
	if v, ok := s.Counter("req.count"); !ok || v != 5 {
		t.Errorf("served snapshot = %+v", s)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("c").Add(7)
	r.Gauge("g").Set(1.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	want := r.Snapshot()
	if !reflect.DeepEqual(back, want) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", back, want)
	}
}
