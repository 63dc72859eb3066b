package core

import (
	"reflect"
	"strings"
	"testing"
)

func optionNamed(t *testing.T, name string) Option {
	t.Helper()
	for _, o := range Catalog() {
		if o.Name == name {
			return o
		}
	}
	t.Fatalf("no catalog option %s", name)
	return Option{}
}

// TestRankedRow checks the one ranking row: measured cells are "-" when
// nothing was re-simulated, and a cost saver's verdict names the unit of
// its gain/area cell.
func TestRankedRow(t *testing.T) {
	for _, c := range []struct {
		name string
		r    Ranked
		want []string
		gain string
	}{
		{"analytical only", Ranked{Option: optionNamed(t, "dspr-2x"), EstMean: 1.047, GainPerArea: 0.0468},
			[]string{"dspr-2x", "1.00", "1.047", "-", "-", "0.0468", "accepted"}, "estimated"},
		{"measured", Ranked{Option: optionNamed(t, "dspr-2x"), EstMean: 1.019, MeaMean: 1.018, MeaMin: 1, GainPerArea: 0.0175},
			[]string{"dspr-2x", "1.00", "1.019", "1.018", "1.000", "0.0175", "accepted"}, "measured"},
		{"rejected", Ranked{Option: optionNamed(t, "prefetch-off"), EstMean: 0.996, MeaMean: 0.97, MeaMin: 0.963, GainPerArea: -0.5915, Rejected: true},
			[]string{"prefetch-off", "0.05", "0.996", "0.970", "0.963", "-0.5915", "REJECTED (regression)"}, "measured"},
		{"cost saver", Ranked{Option: optionNamed(t, "icache-half"), EstMean: 0.993, MeaMean: 0.999, MeaMin: 0.998, GainPerArea: 6},
			[]string{"icache-half", "-0.60", "0.993", "0.999", "0.998", "6.0000", "cost saver (area/% lost)"}, "measured"},
		{"rejected cost saver", Ranked{Option: optionNamed(t, "flash-buffers-min"), EstMean: 0.991, MeaMean: 0.96, MeaMin: 0.95, GainPerArea: 0.0375, Rejected: true},
			[]string{"flash-buffers-min", "-0.15", "0.991", "0.960", "0.950", "0.0375", "REJECTED cost saver (area/% lost)"}, "measured"},
		{"analytical cost saver", Ranked{Option: optionNamed(t, "icache-half"), EstMean: 0.992, GainPerArea: 0.7296},
			[]string{"icache-half", "-0.60", "0.992", "-", "-", "0.7296", "cost saver (area/% lost)"}, "estimated"},
	} {
		if got := c.r.Row(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: Row() = %q, want %q", c.name, got, c.want)
		}
		if len(c.want) != len(RankingHeader) {
			t.Errorf("%s: %d cells for %d header columns", c.name, len(c.want), len(RankingHeader))
		}
		if _, kind := c.r.Gain(); kind != c.gain {
			t.Errorf("%s: Gain() rests on %q, want %q", c.name, kind, c.gain)
		}
	}
}

// TestReportAnalyticalNamesEstimates renders the report of an
// estimates-only ranking: no line may present a measured gain.
func TestReportAnalyticalNamesEstimates(t *testing.T) {
	ev := &Evaluation{Ranking: []Ranked{{
		Option: optionNamed(t, "flash-buffers-2x"), EstMean: 1.02, GainPerArea: 0.0665,
		PerApp: []AppResult{{App: "a", Estimated: 1.017}, {App: "b", Estimated: 1.023}},
	}}}
	var b strings.Builder
	rep := &Report{Title: "t", Profiles: []AppProfile{{App: "a", CPI: 1}}, Eval: ev}
	if err := rep.WriteMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Contains(out, "measured") || strings.Contains(out, "0.000 ") {
		t.Errorf("estimates-only report presents measurements:\n%s", out)
	}
	for _, want := range []string{"mean estimated speedup 1.020",
		"- b            estimated 1.023\n- a            estimated 1.017\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}
