package flowsim

import (
	"math"
	"testing"
	"testing/quick"

	"jellyfish/internal/graph"
	"jellyfish/internal/rng"
	"jellyfish/internal/routing"
	"jellyfish/internal/topology"
	"jellyfish/internal/traffic"
)

// lineTopology: two switches joined by one link, one server each.
func lineFlows() ([]traffic.Flow, *graph.Graph) {
	g := graph.New(2)
	g.AddEdge(0, 1)
	flows := []traffic.Flow{
		{SrcServer: 0, DstServer: 1, SrcSwitch: 0, DstSwitch: 1},
	}
	return flows, g
}

func tableFor(g *graph.Graph, flows []traffic.Flow, kind string, k int) *routing.Table {
	pairs := routing.PairsForPattern(&traffic.Pattern{Flows: flows})
	if kind == "ecmp" {
		return routing.NewCompiled(g).ECMP(pairs, k, rng.New(99), 1)
	}
	return routing.NewCompiled(g).KShortest(pairs, k, 1)
}

func TestSingleFlowFullRate(t *testing.T) {
	flows, g := lineFlows()
	table := tableFor(g, flows, "ecmp", 8)
	for _, proto := range []Protocol{TCP1, TCP8, MPTCP8} {
		res := new(Sim).Simulate(flows, table, proto, rng.New(1))
		if math.Abs(res.FlowRate[0]-1) > 1e-9 {
			t.Fatalf("%v: rate = %v, want 1", proto, res.FlowRate[0])
		}
	}
}

func TestTwoFlowsShareLink(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1)
	flows := []traffic.Flow{
		{SrcServer: 0, DstServer: 2, SrcSwitch: 0, DstSwitch: 1},
		{SrcServer: 1, DstServer: 3, SrcSwitch: 0, DstSwitch: 1},
	}
	table := tableFor(g, flows, "ecmp", 8)
	res := new(Sim).Simulate(flows, table, TCP1, rng.New(1))
	for i, r := range res.FlowRate {
		if math.Abs(r-0.5) > 1e-9 {
			t.Fatalf("flow %d rate = %v, want 0.5", i, r)
		}
	}
}

func TestIntraSwitchFlowFullRate(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1)
	flows := []traffic.Flow{
		{SrcServer: 0, DstServer: 1, SrcSwitch: 0, DstSwitch: 0},
	}
	table := tableFor(g, flows, "ecmp", 8)
	res := new(Sim).Simulate(flows, table, TCP1, rng.New(1))
	if res.FlowRate[0] != 1 {
		t.Fatalf("intra-switch rate = %v, want 1", res.FlowRate[0])
	}
}

func TestDisconnectedFlowZero(t *testing.T) {
	g := graph.New(2) // no link
	flows := []traffic.Flow{
		{SrcServer: 0, DstServer: 1, SrcSwitch: 0, DstSwitch: 1},
	}
	table := tableFor(g, flows, "ecmp", 8)
	res := new(Sim).Simulate(flows, table, MPTCP8, rng.New(1))
	if res.FlowRate[0] != 0 {
		t.Fatalf("disconnected rate = %v, want 0", res.FlowRate[0])
	}
}

func TestMPTCPUsesDisjointPaths(t *testing.T) {
	// Ring of 4: two disjoint 2-hop paths 0→2. One flow with MPTCP should
	// NOT exceed NIC rate 1 even though 2 units of path capacity exist.
	g := graph.New(4)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, (i+1)%4)
	}
	flows := []traffic.Flow{
		{SrcServer: 0, DstServer: 1, SrcSwitch: 0, DstSwitch: 2},
	}
	table := tableFor(g, flows, "ksp", 8)
	res := new(Sim).Simulate(flows, table, MPTCP8, rng.New(1))
	if math.Abs(res.FlowRate[0]-1) > 1e-9 {
		t.Fatalf("MPTCP rate = %v, want 1 (NIC-capped)", res.FlowRate[0])
	}
}

func TestNICSharedBySubflows(t *testing.T) {
	// Two flows from the SAME source server must share its NIC: 0.5 each,
	// even over abundant network capacity.
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	flows := []traffic.Flow{
		{SrcServer: 0, DstServer: 1, SrcSwitch: 0, DstSwitch: 1},
		{SrcServer: 0, DstServer: 2, SrcSwitch: 0, DstSwitch: 2},
	}
	table := tableFor(g, flows, "ecmp", 8)
	res := new(Sim).Simulate(flows, table, MPTCP8, rng.New(1))
	total := res.FlowRate[0] + res.FlowRate[1]
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("flows from one NIC total %v, want 1", total)
	}
}

// Table 1's mechanism: on a path-diverse topology, MPTCP-8 over k-shortest
// paths beats TCP-1 over ECMP.
func TestProtocolOrderingOnJellyfish(t *testing.T) {
	top := topology.Jellyfish(30, 8, 5, rng.New(3))
	pat := traffic.RandomPermutation(top.ServerSwitches(), rng.New(4))
	pairs := routing.PairsForPattern(pat)
	ecmp := routing.NewCompiled(top.Graph).ECMP(pairs, 8, rng.New(99), 1)
	ksp := routing.NewCompiled(top.Graph).KShortest(pairs, 8, 1)

	tcp1 := new(Sim).Simulate(pat.Flows, ecmp, TCP1, rng.New(5)).Mean()
	mptcpKSP := new(Sim).Simulate(pat.Flows, ksp, MPTCP8, rng.New(5)).Mean()
	if mptcpKSP <= tcp1 {
		t.Fatalf("MPTCP/8SP mean %v not above TCP1/ECMP %v", mptcpKSP, tcp1)
	}
	// And everything must respect the NIC.
	for _, r := range new(Sim).Simulate(pat.Flows, ksp, MPTCP8, rng.New(5)).FlowRate {
		if r < 0 || r > 1+1e-9 {
			t.Fatalf("rate %v out of [0,1]", r)
		}
	}
}

// Max-min property: no subflow can be starved while a sibling on strictly
// less-contended resources thrives — verified via aggregate conservation:
// total allocated rate cannot exceed total resource capacity on any cut;
// spot-check: sum of flow rates across a single shared link ≤ 1.
func TestLinkCapacityRespected(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1)
	var flows []traffic.Flow
	for i := 0; i < 5; i++ {
		flows = append(flows, traffic.Flow{
			SrcServer: i, DstServer: 5 + i, SrcSwitch: 0, DstSwitch: 1,
		})
	}
	table := tableFor(g, flows, "ecmp", 8)
	for _, proto := range []Protocol{TCP1, TCP8, MPTCP8} {
		res := new(Sim).Simulate(flows, table, proto, rng.New(7))
		var total float64
		for _, r := range res.FlowRate {
			total += r
		}
		if total > 1+1e-6 {
			t.Fatalf("%v: total rate %v exceeds link capacity 1", proto, total)
		}
		if total < 1-1e-6 {
			t.Fatalf("%v: link underutilized: %v", proto, total)
		}
	}
}

func TestMeanEmpty(t *testing.T) {
	if (Result{}).Mean() != 0 {
		t.Fatal("empty mean != 0")
	}
}

func TestProtocolStrings(t *testing.T) {
	if TCP1.String() != "TCP 1 flow" || TCP8.String() != "TCP 8 flows" || MPTCP8.String() != "MPTCP 8 subflows" {
		t.Fatal("protocol names wrong")
	}
	if TCP1.Subflows() != 1 || TCP8.Subflows() != 8 || MPTCP8.Subflows() != 8 {
		t.Fatal("subflow counts wrong")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	top := topology.Jellyfish(20, 6, 3, rng.New(11))
	pat := traffic.RandomPermutation(top.ServerSwitches(), rng.New(12))
	table := routing.NewCompiled(top.Graph).ECMP(routing.PairsForPattern(pat), 8, rng.New(99), 1)
	a := new(Sim).Simulate(pat.Flows, table, TCP8, rng.New(13))
	b := new(Sim).Simulate(pat.Flows, table, TCP8, rng.New(13))
	for i := range a.FlowRate {
		if a.FlowRate[i] != b.FlowRate[i] {
			t.Fatal("same seed produced different rates")
		}
	}
}

// Coupled MPTCP must SPILL to a second path when the first saturates: two
// parallel 2-hop paths between switch 0 and 3, two flows from different
// servers — together they need both paths to reach aggregate 2.
func TestCoupledSpillsAcrossPaths(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 3)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	flows := []traffic.Flow{
		{SrcServer: 0, DstServer: 2, SrcSwitch: 0, DstSwitch: 3},
		{SrcServer: 1, DstServer: 3, SrcSwitch: 0, DstSwitch: 3},
	}
	table := tableFor(g, flows, "ksp", 8)
	res := new(Sim).Simulate(flows, table, MPTCP8, rng.New(31))
	total := res.FlowRate[0] + res.FlowRate[1]
	if math.Abs(total-2) > 1e-9 {
		t.Fatalf("two flows over two disjoint paths total %v, want 2", total)
	}
	// And fairly: 1 each.
	if math.Abs(res.FlowRate[0]-1) > 1e-9 {
		t.Fatalf("unfair spill: %v", res.FlowRate)
	}
}

// A long congested alternate path must NOT drag a coupled flow below what
// its clean shortest path provides (the regression the coupled model
// fixes vs naive subflow max-min).
func TestCoupledIgnoresUselessLongPath(t *testing.T) {
	// Path A: 0-1 direct. Path B: 0-2-3-1, with 2-3 shared by a hostile
	// permanent flow.
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 1)
	flows := []traffic.Flow{
		{SrcServer: 0, DstServer: 1, SrcSwitch: 0, DstSwitch: 1},
		{SrcServer: 2, DstServer: 3, SrcSwitch: 2, DstSwitch: 3}, // hostile on 2-3
	}
	table := tableFor(g, flows, "ksp", 8)
	res := new(Sim).Simulate(flows, table, MPTCP8, rng.New(33))
	if res.FlowRate[0] < 1-1e-9 {
		t.Fatalf("coupled flow got %v, want full rate via its clean direct path", res.FlowRate[0])
	}
}

func TestJainFairnessEqual(t *testing.T) {
	if f := JainFairness([]float64{5, 5, 5, 5}); f != 1 {
		t.Fatalf("fairness = %v, want 1", f)
	}
}

func TestJainFairnessSkewed(t *testing.T) {
	// One user gets everything: index = 1/n.
	f := JainFairness([]float64{1, 0, 0, 0})
	if math.Abs(f-0.25) > 1e-12 {
		t.Fatalf("fairness = %v, want 0.25", f)
	}
}

func TestJainFairnessEmptyAndZero(t *testing.T) {
	if JainFairness(nil) != 1 {
		t.Fatal("empty fairness != 1")
	}
	if JainFairness([]float64{0, 0}) != 1 {
		t.Fatal("all-zero fairness != 1")
	}
}

func TestJainFairnessBounds(t *testing.T) {
	f := func(xs []float64) bool {
		for i, x := range xs {
			if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				xs[i] = math.Abs(math.Mod(x, 100))
				if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) {
					xs[i] = 1
				}
			}
		}
		j := JainFairness(xs)
		if len(xs) == 0 {
			return j == 1
		}
		return j >= 1/float64(len(xs))-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
