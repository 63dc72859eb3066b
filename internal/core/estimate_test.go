package core

import (
	"testing"

	"repro/internal/soc"
	"repro/internal/workload"
)

// pinnedOptions is the column order of pinnedEstimates.
var pinnedOptions = []string{"icache-2x", "dcache-2x", "flash-ws-1", "flash-buffers-2x",
	"dspr-2x", "sram-1cycle", "prefetch-off", "icache-half", "flash-buffers-min", "flash-arb-fcfs"}

// pinnedEstimates holds every catalog option's exact estimate per profile:
// the E6 fleet's measured profiles and the literal profiles of
// pinnedEdges. A one-ulp change of any coefficient moves at least one.
var pinnedEstimates = map[string][]float64{
	"customer00":        {1.0115161046144394, 1.0304247115417677, 1.0261445205524433, 1.0226846948609818, 1.0561306887871742, 1.0000150110946477, 0.9919334597688494, 0.9850469947180444, 0.9890189228990518, 0.9999887419747558},
	"customer01":        {1.0010885265148897, 1.0205680065255818, 1.020231184386382, 1.0172365099534721, 1.037641784928482, 1.0001025664411451, 0.9992239292440992, 0.9985523082986857, 0.990999740358068, 0.9999962479681382},
	"customer02":        {1.002086160205686, 1.0070500793271977, 1.015598784856366, 1.011584173461488, 1.012762121966755, 1.000182780703917, 0.9985151956355585, 0.9972319272267061, 0.9922675073818501, 0.9999887348823076},
	"customer03":        {1.002055278141709, 1.0002893361144098, 1.0134784526373142, 1.0091203039002137, 1.000520925584005, 1.0000225396578875, 0.9985370984751123, 0.9972727082781991, 0.9925959784477635, 0.9999962434891344},
	"customer04":        {1.012888262698053, 1.0057400071988496, 1.016058603008834, 1.0124677037436454, 1.0103796764921587, 1, 0.9909930980473249, 0.9833173408866248, 0.9912423736289878, 1},
	"customer05":        {1.0020033482757607, 1.0002894623411978, 1.022144557407318, 1.0158454762808429, 1.0005211528974662, 1.0000250550499907, 0.9985739344987931, 0.9973412970177348, 0.9872387056806948, 0.9999962418507862},
	"zero-rates":        {1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
	"one-wait-state":    {1.0090817356205852, 1.0230179028132993, 1, 1.0381520892810796, 1.0422094841063054, 1.0256410256410258, 0.9852216748768474, 0.9881422924901185, 0.9756097560975611, 0.9970089730807579},
	"stall-share-clamp": {1.0526315789473684, 1.0526315789473684, 1.0080645161290323, 1.0526315789473684, 1.0526315789473684, 1.0526315789473684, 0.7272727272727273, 0.78125, 0.9960159362549801, 0.9638554216867469},
	"third-cpi-clamp":   {1.5, 1.5, 1.1904761904761905, 1.5, 1.5, 1.5, 0.4, 0.2631578947368421, 0.9433962264150942, 0.7692307692307692},
	"ulp-probe-a":       {2.762430939226519, 1.8461538461538463, 1.0311640696608615, 1.213444970270598, 5.714285714285715, 2.173913043478261, 0.32478077297823976, 0.5403458213256485, 0.9689922480620154, 0.42016806722689076},
	"ulp-probe-b":       {2.7777777777777777, 2.7777777777777777, 1.0760401721664274, 1.6744809109176158, 2.7777777777777777, 1.7647058823529411, 0.4533091568449683, 0.35277516462841013, 0.9532888465204957, 0.5479452054794521},
	"ulp-probe-c":       {1.2345679012345678, 18, 1.6556291390728477, 1.7445917655268666, 18, 1.466992665036675, 0.859106529209622, 0.797872340425532, 0.9099181073703366, 0.7366482504604052},
}

type namedProfile struct {
	name string
	ap   AppProfile
}

// pinnedEdges are literal profiles that reach each edge of the
// estimator: no events at all (every option estimates exactly 1), one
// flash wait state (flash-ws-1 estimates exactly 1), savings beyond the
// measured stall share, savings that would push CPI below 1/3, and
// three probes of the coefficients' last bits.
func pinnedEdges() []namedProfile {
	busy := map[string]float64{
		"icache_miss": 0.02, "dflash_read": 0.03, "stall_fetch": 0.25,
		"stall_data": 0.15, "stall_any": 0.4, "dsram_access": 0.05,
		"iflash_access": 0.1, "flash_port_conflict": 0.004,
	}
	clamped := map[string]float64{
		"icache_miss": 0.2, "dflash_read": 0.2, "stall_fetch": 0.04,
		"stall_data": 0.01, "stall_any": 0.05, "dsram_access": 0.3,
		"iflash_access": 0.5, "flash_port_conflict": 0.05,
	}
	floor := map[string]float64{
		"icache_miss": 0.5, "dflash_read": 0.5, "stall_fetch": 0.6,
		"stall_data": 0.4, "stall_any": 1, "dsram_access": 1,
		"iflash_access": 0.5, "flash_port_conflict": 0.1,
	}
	// The probes are far from any real application: savings or losses so
	// large against the remaining CPI that a one-ulp change of any
	// coefficient moves at least one estimate.
	probeA := map[string]float64{
		"icache_miss": 0.58, "dflash_read": 0.25, "stall_fetch": 0.32,
		"stall_data": 0.02, "stall_any": 0.93, "dsram_access": 1.62,
		"iflash_access": 2.31, "flash_port_conflict": 2.76,
	}
	probeB := map[string]float64{
		"icache_miss": 1.72, "dflash_read": 0.86, "stall_fetch": 0.49,
		"stall_data": 0.04, "stall_any": 0.64, "dsram_access": 1.3,
		"iflash_access": 2.01, "flash_port_conflict": 1.65,
	}
	probeC := map[string]float64{
		"icache_miss": 0.95, "dflash_read": 3.08, "stall_fetch": 0.99,
		"stall_data": 0, "stall_any": 1, "dsram_access": 1.91,
		"iflash_access": 1.64, "flash_port_conflict": 1.43,
	}
	return []namedProfile{
		{"zero-rates", AppProfile{App: "zero-rates", CPI: 1.5, FlashWS: 5, Rates: map[string]float64{}}},
		{"one-wait-state", AppProfile{App: "one-wait-state", CPI: 2, FlashWS: 1, Rates: busy}},
		{"stall-share-clamp", AppProfile{App: "stall-share-clamp", CPI: 2, FlashWS: 5, Rates: clamped}},
		{"third-cpi-clamp", AppProfile{App: "third-cpi-clamp", CPI: 0.5, FlashWS: 5, Rates: floor}},
		{"ulp-probe-a", AppProfile{App: "ulp-probe-a", CPI: 3, FlashWS: 9, Rates: probeA}},
		{"ulp-probe-b", AppProfile{App: "ulp-probe-b", CPI: 3, FlashWS: 6, Rates: probeB}},
		{"ulp-probe-c", AppProfile{App: "ulp-probe-c", CPI: 6, FlashWS: 2, Rates: probeC}},
	}
}

// TestEstimatePinned pins each catalog option's analytical estimate to
// the bit, on the E6 fleet (workload.Fleet(6, 77) profiled on TC1797)
// and on pinnedEdges.
func TestEstimatePinned(t *testing.T) {
	profiles := pinnedEdges()
	for _, sp := range workload.Fleet(6, 77) {
		ap, err := ProfileApp(soc.TC1797(), sp, DefaultEvalParams().ProfileHorizon)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, namedProfile{sp.Name, ap})
	}
	cat := Catalog()
	if len(cat) != len(pinnedOptions) {
		t.Fatalf("catalog has %d options, pinned %d", len(cat), len(pinnedOptions))
	}
	for i, opt := range cat {
		if opt.Name != pinnedOptions[i] {
			t.Fatalf("catalog option %d is %s, pinned %s", i, opt.Name, pinnedOptions[i])
		}
	}
	for _, p := range profiles {
		want, ok := pinnedEstimates[p.name]
		if !ok {
			t.Fatalf("no pinned estimates for %s", p.name)
		}
		for i, opt := range cat {
			if got := opt.Estimate(p.ap); got != want[i] {
				t.Errorf("%s on %s: estimate %v, pinned %v", opt.Name, p.name, got, want[i])
			}
		}
	}
}
