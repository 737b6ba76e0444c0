package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

var quick = Options{Seed: 42, Quick: true}

// fullScale skips the test under -short: these sweeps dominate the
// suite's ~1min runtime. `go test -short ./...` keeps a seconds-long
// smoke subset; the full suite runs without -short.
func fullScale(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("full-scale sweep; run without -short to include it")
	}
}

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestAllRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if ids[e.ID] {
			t.Fatalf("duplicate experiment %s", e.ID)
		}
		ids[e.ID] = true
		if e.Run == nil {
			t.Fatalf("experiment %s has nil runner", e.ID)
		}
	}
	// The paper has 14 reproduced figures + 1 table + figs 2a/2b/2c counted
	// separately (17), plus 8 ablations: 25 experiments total.
	if len(ids) != 25 {
		t.Fatalf("registry has %d experiments, want 25", len(ids))
	}
	if Lookup("fig2c") == nil || Lookup("nope") != nil {
		t.Fatal("Lookup misbehaves")
	}
}

func TestTableFprint(t *testing.T) {
	tab := &Table{ID: "x", Title: "t", Columns: []string{"a", "b"}}
	tab.AddRow(1, 2.5)
	tab.Notes = append(tab.Notes, "n")
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== x: t ==", "a", "2.5", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig1cQuick(t *testing.T) {
	tab := Fig1cPathLengthCDF(quick)
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Jellyfish CDF must dominate the fat-tree CDF at small hop counts.
	jf2 := parseFloat(t, tab.Rows[1][1])
	ft2 := parseFloat(t, tab.Rows[1][2])
	if jf2 <= ft2 {
		t.Fatalf("jellyfish 2-hop CDF %v not above fat-tree %v", jf2, ft2)
	}
	// Final CDF values reach 1.
	last := tab.Rows[len(tab.Rows)-1]
	if parseFloat(t, last[1]) < 0.999 || parseFloat(t, last[2]) < 0.999 {
		t.Fatalf("CDFs do not reach 1: %v", last)
	}
}

func TestFig2aQuick(t *testing.T) {
	tab := Fig2aBisectionVsServers(quick)
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Bisection decreases as servers increase along an equal-cost curve.
	prev := -1.0
	for _, row := range tab.Rows {
		b := parseFloat(t, row[4])
		if prev >= 0 && b > prev {
			t.Fatalf("bisection increased with more servers: %v -> %v", prev, b)
		}
		prev = b
	}
}

func TestFig2bQuick(t *testing.T) {
	tab := Fig2bEquipmentCost(quick)
	for _, row := range tab.Rows {
		jf := parseFloat(t, row[2])
		ft := parseFloat(t, row[3])
		if jf > 0 && ft > 0 && jf >= ft {
			t.Fatalf("jellyfish ports %v not below fat-tree %v: %v", jf, ft, row)
		}
	}
}

func TestFig2cQuick(t *testing.T) {
	fullScale(t)
	tab := Fig2cServersAtFullThroughput(quick)
	for _, row := range tab.Rows {
		ft := parseFloat(t, row[2])
		jf := parseFloat(t, row[3])
		if jf < ft {
			t.Fatalf("jellyfish %v below fat-tree %v at equal equipment", jf, ft)
		}
	}
}

func TestFig3Quick(t *testing.T) {
	fullScale(t)
	tab := Fig3DegreeDiameter(quick)
	for _, row := range tab.Rows {
		ratio := parseFloat(t, row[3])
		// Paper: ≥ ~91%; allow slack for the approximation stack.
		if ratio < 0.85 {
			t.Fatalf("jellyfish/dd ratio %v below 0.85: %v", ratio, row)
		}
		if ratio > 1.15 {
			t.Fatalf("jellyfish/dd ratio %v implausibly high", ratio)
		}
	}
}

func TestFig4Quick(t *testing.T) {
	fullScale(t)
	tab := Fig4SWDC(quick)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	jf := parseFloat(t, tab.Rows[0][2])
	for _, row := range tab.Rows[1:] {
		if jf < parseFloat(t, row[2]) {
			t.Fatalf("jellyfish %v below %s %v", jf, row[0], row[2])
		}
	}
}

func TestFig5Quick(t *testing.T) {
	tab := Fig5PathLength(quick)
	for _, row := range tab.Rows {
		scratch := parseFloat(t, row[2])
		incr := parseFloat(t, row[4])
		if diff := scratch - incr; diff > 0.12 || diff < -0.12 {
			t.Fatalf("incremental mean path diverges from scratch: %v", row)
		}
	}
}

func TestFig6Quick(t *testing.T) {
	fullScale(t)
	tab := Fig6IncrementalVsScratch(quick)
	for _, row := range tab.Rows {
		incr := parseFloat(t, row[2])
		scratch := parseFloat(t, row[3])
		if diff := incr - scratch; diff > 0.08 || diff < -0.08 {
			t.Fatalf("incremental throughput diverges: %v", row)
		}
	}
}

func TestFig7Quick(t *testing.T) {
	tab := Fig7LEGUP(quick)
	last := tab.Rows[len(tab.Rows)-1]
	jf := parseFloat(t, last[3])
	clos := parseFloat(t, last[5])
	if jf <= clos {
		t.Fatalf("final stage: jellyfish %v not above clos %v", jf, clos)
	}
}

func TestFig8Quick(t *testing.T) {
	tab := Fig8Failures(quick)
	prev := 2.0
	for _, row := range tab.Rows {
		jf := parseFloat(t, row[1])
		if jf > prev+0.02 {
			t.Fatalf("jellyfish throughput rose under failures: %v", row)
		}
		prev = jf
	}
	// 15%-ish failures should cost well under 30% of healthy capacity.
	if rel := parseFloat(t, tab.Rows[3][2]); rel < 0.70 {
		t.Fatalf("15%% failures cost too much: relative %v", rel)
	}
}

func TestFig9Quick(t *testing.T) {
	tab := Fig9ECMPPathCounts(quick)
	// At the median, ksp8 must put strictly more paths on links than ecmp8.
	for _, row := range tab.Rows {
		if row[0] == "p50" {
			ecmp := parseFloat(t, row[1])
			ksp := parseFloat(t, row[3])
			if ksp <= ecmp {
				t.Fatalf("median link path count: ksp %v not above ecmp %v", ksp, ecmp)
			}
		}
	}
}

func TestTable1Quick(t *testing.T) {
	tab := Table1RoutingCongestion(quick)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	// MPTCP row: jellyfish 8SP must beat jellyfish ECMP (the paper's
	// central routing finding).
	mptcp := tab.Rows[2]
	jfECMP := parseFloat(t, mptcp[2])
	jf8SP := parseFloat(t, mptcp[3])
	if jf8SP <= jfECMP {
		t.Fatalf("MPTCP: 8SP %v not above ECMP %v", jf8SP, jfECMP)
	}
	// TCP-8 must beat TCP-1 everywhere.
	for col := 1; col <= 3; col++ {
		if parseFloat(t, tab.Rows[1][col]) <= parseFloat(t, tab.Rows[0][col]) {
			t.Fatalf("TCP8 not above TCP1 in column %d", col)
		}
	}
}

func TestFig10Quick(t *testing.T) {
	tab := Fig10SimVsOptimal(quick)
	for _, row := range tab.Rows {
		ratio := parseFloat(t, row[3])
		if ratio < 0.75 || ratio > 1.05 {
			t.Fatalf("packet/optimal ratio %v outside [0.75,1.05]: %v", ratio, row)
		}
	}
}

func TestFig11Quick(t *testing.T) {
	fullScale(t)
	tab := Fig11PacketLevelServers(quick)
	for _, row := range tab.Rows {
		ft := parseFloat(t, row[2])
		jf := parseFloat(t, row[4])
		if jf < ft {
			t.Fatalf("packet-level: jellyfish %v below fat-tree %v", jf, ft)
		}
	}
}

func TestFig12Quick(t *testing.T) {
	tab := Fig12Stability(quick)
	for _, row := range tab.Rows {
		avg := parseFloat(t, row[3])
		min := parseFloat(t, row[4])
		max := parseFloat(t, row[5])
		if min > avg || avg > max {
			t.Fatalf("summary ordering broken: %v", row)
		}
		if min < avg*0.80 {
			t.Fatalf("instability too high: %v", row)
		}
	}
}

func TestFig13Quick(t *testing.T) {
	tab := Fig13Fairness(quick)
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "jain" {
		t.Fatal("missing jain row")
	}
	ft := parseFloat(t, last[1])
	jf := parseFloat(t, last[2])
	if ft < 0.9 || jf < 0.9 {
		t.Fatalf("fairness too low: ft=%v jf=%v (paper: ≈0.99)", ft, jf)
	}
}

func TestFig14Quick(t *testing.T) {
	fullScale(t)
	tab := Fig14Locality(quick)
	for _, row := range tab.Rows {
		frac := parseFloat(t, row[1])
		norm := parseFloat(t, row[3])
		if frac <= 0.45 && norm < 0.90 {
			t.Fatalf("locality %v lost too much throughput: %v", frac, norm)
		}
	}
}

func TestAblationRoutingKQuick(t *testing.T) {
	tab := AblationRoutingK(quick)
	// k=8 must beat k=1 (single-path) clearly.
	k1 := parseFloat(t, tab.Rows[0][1])
	k8 := parseFloat(t, tab.Rows[3][1])
	if k8 <= k1 {
		t.Fatalf("k=8 throughput %v not above k=1 %v", k8, k1)
	}
}

func TestAblationOversubscriptionQuick(t *testing.T) {
	fullScale(t)
	tab := AblationOversubscription(quick)
	// Throughput is nonincreasing in servers per switch (monotone dial,
	// modulo small solver noise).
	prev := 2.0
	for _, row := range tab.Rows {
		tp := parseFloat(t, row[3])
		if tp > prev+0.05 {
			t.Fatalf("throughput rose with more oversubscription: %v", tab.Rows)
		}
		prev = tp
	}
	first := parseFloat(t, tab.Rows[0][3])
	last := parseFloat(t, tab.Rows[len(tab.Rows)-1][3])
	if first < 0.95 || last > 0.7 {
		t.Fatalf("dial endpoints implausible: %v .. %v", first, last)
	}
}

func TestAblationHeterogeneousQuick(t *testing.T) {
	fullScale(t)
	tab := AblationHeterogeneousExpansion(quick)
	base := parseFloat(t, tab.Rows[0][4])
	upgraded := parseFloat(t, tab.Rows[2][4])
	// Adding 24-port switches must not reduce throughput materially even
	// though servers were added too.
	if upgraded < base*0.85 {
		t.Fatalf("heterogeneous expansion collapsed throughput: %v -> %v", base, upgraded)
	}
}

func TestAblationFailuresRoutingQuick(t *testing.T) {
	tab := AblationFailuresRealizableRouting(quick)
	healthy := parseFloat(t, tab.Rows[0][1])
	at20 := parseFloat(t, tab.Rows[len(tab.Rows)-1][1])
	if at20 < healthy*0.60 {
		t.Fatalf("20%% failures cost too much under kSP routing: %v -> %v", healthy, at20)
	}
}

func TestAblationAllToAllQuick(t *testing.T) {
	tab := AblationAllToAll(quick)
	ft := parseFloat(t, tab.Rows[0][2])
	jf := parseFloat(t, tab.Rows[1][2])
	if jf < ft*0.95 {
		t.Fatalf("jellyfish all-to-all %v well below fat-tree %v", jf, ft)
	}
}

func TestAblationSwitchFailuresQuick(t *testing.T) {
	fullScale(t)
	tab := AblationSwitchFailures(quick)
	healthy := parseFloat(t, tab.Rows[0][2])
	at10 := parseFloat(t, tab.Rows[2][2])
	if at10 < healthy*0.70 {
		t.Fatalf("10%% switch failures cost too much: %v -> %v", healthy, at10)
	}
}

func TestAblationPacketVsFluidQuick(t *testing.T) {
	fullScale(t)
	tab := AblationPacketVsFluid(quick)
	for _, row := range tab.Rows {
		ratio := parseFloat(t, row[4])
		if ratio < 0.75 || ratio > 1.25 {
			t.Fatalf("DES/fluid ratio %v outside [0.75,1.25]: %v", ratio, row)
		}
	}
}

func TestAblationHotspotQuick(t *testing.T) {
	fullScale(t)
	tab := AblationHotspot(quick)
	prev := 2.0
	for _, row := range tab.Rows {
		tp := parseFloat(t, row[1])
		if tp > prev+0.05 {
			t.Fatalf("hotspot throughput not monotone: %v", tab.Rows)
		}
		prev = tp
	}
	// Even 40% hot senders must not collapse throughput to near zero.
	last := parseFloat(t, tab.Rows[len(tab.Rows)-1][1])
	if last < 0.05 {
		t.Fatalf("hotspot collapsed throughput: %v", last)
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{3, 1, 2})
	if s.Mean != 2 || s.Min != 1 || s.Max != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if z := summarize(nil); z != (summary{}) {
		t.Fatalf("empty summary = %+v", z)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if p := percentile(xs, 50); p != 50 {
		t.Fatalf("P50 = %v, want 50", p)
	}
	if p := percentile(xs, 100); p != 100 {
		t.Fatalf("P100 = %v, want 100", p)
	}
	if p := percentile(xs, 1); p != 10 {
		t.Fatalf("P1 = %v, want 10", p)
	}
	if percentile(nil, 50) != 0 {
		t.Fatal("empty percentile != 0")
	}
}

// TestRankAscendingDoesNotMutate checks that percentile ranks over a sorted
// copy: the sample keeps its order.
func TestRankAscendingDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	if p := percentile(in, 1); p != 1 || in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("P1 = %v over %v, want 1 over [3 1 2]", p, in)
	}
	if p := percentile(in, 100); p != 3 || in[0] != 3 {
		t.Fatalf("P100 = %v over %v, want 3 over [3 1 2]", p, in)
	}
}
