package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) for the registry.
//
// The JSON snapshot endpoint is the deterministic, golden-testable
// surface; this file adds the scrape surface an ops stack expects. It
// is a pure function of Snapshot(), so it inherits the snapshot's
// deterministic ordering and its concurrency safety, and it costs
// nothing when not scraped.
//
// Dimensional metrics follow the registry's established naming
// convention — a per-instance ordinal embedded in the name, e.g.
// campaign_shard00_alive or campaign_worker03_util — and are folded
// into one Prometheus metric family with a label:
//
//	campaign_shard00_alive       → campaign_shard_alive{shard="0"}
//	campaign_worker03_util       → campaign_worker_util{worker="3"}
//
// so a dashboard can aggregate across shards/workers without knowing
// the fleet size in advance.

// promDim matches one embedded dimension ordinal: the dimension name
// followed by decimal digits, delimited by the name's underscores.
var promDim = regexp.MustCompile(`^(shard|worker)([0-9]+)$`)

// promName sanitizes a metric name into the Prometheus grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// splitDims folds embedded per-instance ordinals out of a metric name:
// "campaign_shard00_alive" → base "campaign_shard_alive", labels
// {shard="0"}. Names without a recognized dimension pass through with
// no labels.
func splitDims(name string) (base string, labels string) {
	segs := strings.Split(name, "_")
	var lab []string
	out := make([]string, 0, len(segs))
	for _, seg := range segs {
		if m := promDim.FindStringSubmatch(seg); m != nil {
			ord := strings.TrimLeft(m[2], "0")
			if ord == "" {
				ord = "0"
			}
			lab = append(lab, fmt.Sprintf("%s=%q", m[1], ord))
			out = append(out, m[1])
			continue
		}
		out = append(out, seg)
	}
	base = strings.Join(out, "_")
	if len(lab) > 0 {
		labels = "{" + strings.Join(lab, ",") + "}"
	}
	return base, labels
}

// promFamily is one exposition family: every series that folded to the
// same base name, kept in snapshot (hence deterministic) order.
type promFamily struct {
	kind   string // "counter" | "gauge"
	series []promSeries
}

type promSeries struct {
	labels string
	value  string // rendered sample value
}

// WritePrometheus writes the current snapshot in the Prometheus text
// exposition format. On the disabled (nil) registry it writes nothing
// and returns nil — the no-op contract every obs surface keeps.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	snap := r.Snapshot()
	var order []string
	fams := map[string]*promFamily{}
	add := func(name, kind, value string) {
		base, labels := splitDims(name)
		base = promName(base)
		f := fams[base]
		if f == nil {
			f = &promFamily{kind: kind}
			fams[base] = f
			order = append(order, base)
		}
		f.series = append(f.series, promSeries{labels: labels, value: value})
	}
	for _, c := range snap.Counters {
		add(c.Name, "counter", strconv.FormatUint(c.Value, 10))
	}
	for _, g := range snap.Gauges {
		add(g.Name, "gauge", promFloat(g.Value))
	}

	var b strings.Builder
	for _, base := range order {
		f := fams[base]
		fmt.Fprintf(&b, "# TYPE %s %s\n", base, f.kind)
		for _, s := range f.series {
			fmt.Fprintf(&b, "%s%s %s\n", base, s.labels, s.value)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// promFloat renders a gauge value; Prometheus accepts Go's shortest
// round-trip float formatting, with the special values spelled out.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// PromHandler returns the /metrics/prom scrape handler. Safe on the
// disabled registry (serves an empty exposition).
func (r *Registry) PromHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			http.Error(w, fmt.Sprintf("obs: %v", err), http.StatusInternalServerError)
		}
	})
}
