package packetsim

import (
	"math"
	"testing"

	"jellyfish/internal/flowsim"
	"jellyfish/internal/graph"
	"jellyfish/internal/rng"
	"jellyfish/internal/routing"
	"jellyfish/internal/topology"
	"jellyfish/internal/traffic"
)

func tcp1(c Config) Config  { c.Subflows = 1; return c }
func mptcp(c Config) Config { c.Subflows = 8; c.Coupled = true; return c }

func tableFor(g *graph.Graph, flows []traffic.Flow, ksp bool) *routing.Table {
	pairs := routing.PairsForPattern(&traffic.Pattern{Flows: flows})
	if ksp {
		return routing.NewCompiled(g).KShortest(pairs, 8, 1)
	}
	return routing.NewCompiled(g).ECMP(pairs, 8, rng.New(77), 1)
}

func TestSingleFlowSaturatesLink(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1)
	flows := []traffic.Flow{{SrcServer: 0, DstServer: 1, SrcSwitch: 0, DstSwitch: 1}}
	res := new(Sim).Simulate(flows, tableFor(g, flows, false), tcp1(Config{}), rng.New(1))
	if res.FlowGoodput[0] < 0.85 {
		t.Fatalf("single flow goodput = %v, want near line rate", res.FlowGoodput[0])
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1)
	flows := []traffic.Flow{
		{SrcServer: 0, DstServer: 2, SrcSwitch: 0, DstSwitch: 1},
		{SrcServer: 1, DstServer: 3, SrcSwitch: 0, DstSwitch: 1},
	}
	res := new(Sim).Simulate(flows, tableFor(g, flows, false), tcp1(Config{Horizon: 8000}), rng.New(2))
	total := res.FlowGoodput[0] + res.FlowGoodput[1]
	if total > 1.02 {
		t.Fatalf("two flows exceed link capacity: %v", total)
	}
	if total < 0.80 {
		t.Fatalf("link badly underutilized: %v", total)
	}
	// AIMD fairness: neither flow starved.
	ratio := res.FlowGoodput[0] / res.FlowGoodput[1]
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("unfair split: %v vs %v", res.FlowGoodput[0], res.FlowGoodput[1])
	}
}

func TestIntraSwitchFullRate(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1)
	flows := []traffic.Flow{{SrcServer: 0, DstServer: 1, SrcSwitch: 0, DstSwitch: 0}}
	res := new(Sim).Simulate(flows, tableFor(g, flows, false), tcp1(Config{}), rng.New(3))
	if res.FlowGoodput[0] != 1 {
		t.Fatalf("intra-switch goodput = %v, want 1", res.FlowGoodput[0])
	}
}

func TestDisconnectedZero(t *testing.T) {
	g := graph.New(2)
	flows := []traffic.Flow{{SrcServer: 0, DstServer: 1, SrcSwitch: 0, DstSwitch: 1}}
	res := new(Sim).Simulate(flows, tableFor(g, flows, false), tcp1(Config{}), rng.New(4))
	if res.FlowGoodput[0] != 0 {
		t.Fatalf("disconnected goodput = %v, want 0", res.FlowGoodput[0])
	}
}

func TestNICBoundsMPTCP(t *testing.T) {
	// Ring of 4: two disjoint paths 0→2, but one NIC caps the flow at 1.
	g := graph.New(4)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, (i+1)%4)
	}
	flows := []traffic.Flow{{SrcServer: 0, DstServer: 1, SrcSwitch: 0, DstSwitch: 2}}
	res := new(Sim).Simulate(flows, tableFor(g, flows, true), mptcp(Config{}), rng.New(5))
	if res.FlowGoodput[0] > 1 {
		t.Fatalf("goodput %v exceeds NIC", res.FlowGoodput[0])
	}
	if res.FlowGoodput[0] < 0.7 {
		t.Fatalf("MPTCP goodput = %v, want near 1", res.FlowGoodput[0])
	}
}

func TestMPTCPUsesBothDisjointPaths(t *testing.T) {
	// Two switch-level flows from distinct servers share switch 0→2 demand:
	// combined they need both ring paths. MPTCP should find ~2 units total.
	g := graph.New(4)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, (i+1)%4)
	}
	flows := []traffic.Flow{
		{SrcServer: 0, DstServer: 2, SrcSwitch: 0, DstSwitch: 2},
		{SrcServer: 1, DstServer: 3, SrcSwitch: 0, DstSwitch: 2},
	}
	res := new(Sim).Simulate(flows, tableFor(g, flows, true), mptcp(Config{Horizon: 8000}), rng.New(6))
	total := res.FlowGoodput[0] + res.FlowGoodput[1]
	if total < 1.3 {
		t.Fatalf("two MPTCP flows over two disjoint paths total %v, want > 1.3", total)
	}
}

func TestMeanEmpty(t *testing.T) {
	if (Result{}).Mean() != 0 {
		t.Fatal("empty mean != 0")
	}
}

// The headline validation: on a small Jellyfish at moderate load, the
// packet-level simulator and the fluid flow model agree on mean throughput
// within modeling tolerance, for both routing schemes. This is the bridge
// that justifies using flowsim for the big sweeps.
func TestAgreesWithFlowsim(t *testing.T) {
	top := topology.Jellyfish(30, 10, 7, rng.New(7))
	pat := traffic.RandomPermutation(top.ServerSwitches(), rng.New(8))
	for _, ksp := range []bool{false, true} {
		table := tableFor(top.Graph, pat.Flows, ksp)
		fluid := new(flowsim.Sim).Simulate(pat.Flows, table, flowsim.MPTCP8, rng.New(9)).Mean()
		pkt := new(Sim).Simulate(pat.Flows, table, mptcp(Config{Horizon: 6000}), rng.New(9)).Mean()
		if math.Abs(pkt-fluid) > 0.20 {
			t.Fatalf("ksp=%v: packet %v vs fluid %v diverge by more than 0.20", ksp, pkt, fluid)
		}
		if pkt <= 0.3 {
			t.Fatalf("ksp=%v: packet sim collapsed: %v", ksp, pkt)
		}
	}
}

func TestDeterministic(t *testing.T) {
	top := topology.Jellyfish(15, 8, 5, rng.New(10))
	pat := traffic.RandomPermutation(top.ServerSwitches(), rng.New(11))
	table := tableFor(top.Graph, pat.Flows, true)
	a := new(Sim).Simulate(pat.Flows, table, mptcp(Config{}), rng.New(12))
	b := new(Sim).Simulate(pat.Flows, table, mptcp(Config{}), rng.New(12))
	for i := range a.FlowGoodput {
		if a.FlowGoodput[i] != b.FlowGoodput[i] {
			t.Fatal("same seed, different goodput")
		}
	}
}

func TestUncoupledTCP8(t *testing.T) {
	// TCP-8 on a single path: 8 subflows of one flow saturate the link and
	// the NIC still caps goodput at 1.
	g := graph.New(2)
	g.AddEdge(0, 1)
	flows := []traffic.Flow{{SrcServer: 0, DstServer: 1, SrcSwitch: 0, DstSwitch: 1}}
	res := new(Sim).Simulate(flows, tableFor(g, flows, false), Config{Subflows: 8}, rng.New(13))
	if res.FlowGoodput[0] > 1 {
		t.Fatalf("goodput %v exceeds NIC", res.FlowGoodput[0])
	}
	if res.FlowGoodput[0] < 0.8 {
		t.Fatalf("goodput %v, want near 1", res.FlowGoodput[0])
	}
}

func TestQueueCapacityMatters(t *testing.T) {
	// Tiny queues force drops and lower goodput relative to big queues
	// when many flows share a link.
	g := graph.New(2)
	g.AddEdge(0, 1)
	var flows []traffic.Flow
	for i := 0; i < 8; i++ {
		flows = append(flows, traffic.Flow{SrcServer: i, DstServer: 8 + i, SrcSwitch: 0, DstSwitch: 1})
	}
	table := tableFor(g, flows, false)
	tiny := new(Sim).Simulate(flows, table, Config{Subflows: 1, QueuePackets: 2, Horizon: 6000}, rng.New(14))
	big := new(Sim).Simulate(flows, table, Config{Subflows: 1, QueuePackets: 256, Horizon: 6000}, rng.New(14))
	if tiny.Mean() > big.Mean()+0.02 {
		t.Fatalf("tiny queues outperformed big queues: %v vs %v", tiny.Mean(), big.Mean())
	}
	var total float64
	for _, x := range big.FlowGoodput {
		total += x
	}
	if total > 1.02 {
		t.Fatalf("aggregate goodput %v exceeds link rate", total)
	}
}
