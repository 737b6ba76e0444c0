package traffic

import (
	"math"
	"testing"

	"jellyfish/internal/rng"
	"jellyfish/internal/topology"
)

func serverSwitchesFor(t *testing.T, n, k, r int, seed uint64) []int {
	t.Helper()
	top := topology.Jellyfish(n, k, r, rng.New(seed))
	return top.ServerSwitches()
}

func TestRandomPermutationIsDerangement(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		ss := serverSwitchesFor(t, 10, 6, 3, seed)
		p := RandomPermutation(ss, rng.New(seed))
		if len(p.Flows) != len(ss) {
			t.Fatalf("flows = %d, want %d", len(p.Flows), len(ss))
		}
		seen := make([]bool, len(ss))
		for _, f := range p.Flows {
			if f.SrcServer == f.DstServer {
				t.Fatalf("seed %d: fixed point at server %d", seed, f.SrcServer)
			}
			if seen[f.DstServer] {
				t.Fatalf("seed %d: server %d receives twice", seed, f.DstServer)
			}
			seen[f.DstServer] = true
			if f.SrcSwitch != ss[f.SrcServer] || f.DstSwitch != ss[f.DstServer] {
				t.Fatal("switch annotation wrong")
			}
		}
	}
}

func TestDerangementSmall(t *testing.T) {
	for n := 2; n <= 6; n++ {
		for seed := uint64(0); seed < 30; seed++ {
			d := derangement(n, rng.New(seed))
			seen := make([]bool, n)
			for i, v := range d {
				if i == v {
					t.Fatalf("n=%d seed=%d: fixed point %d", n, seed, i)
				}
				if v < 0 || v >= n || seen[v] {
					t.Fatalf("n=%d seed=%d: not a permutation: %v", n, seed, d)
				}
				seen[v] = true
			}
		}
	}
}

func TestDerangementSingleServer(t *testing.T) {
	if d := derangement(1, rng.New(1)); len(d) != 1 {
		t.Fatal("derangement(1) wrong length")
	}
}

func TestCommoditiesAggregate(t *testing.T) {
	// 3 servers on switch 0, 3 on switch 1; force all flows 0→1.
	ss := []int{0, 0, 0, 1, 1, 1}
	p := &Pattern{ServerSwitch: ss}
	for s := 0; s < 3; s++ {
		p.Flows = append(p.Flows, Flow{SrcServer: s, DstServer: s + 3, SrcSwitch: 0, DstSwitch: 1})
	}
	comms := p.Commodities()
	if len(comms) != 1 {
		t.Fatalf("commodities = %d, want 1 aggregated", len(comms))
	}
	if comms[0].Src != 0 || comms[0].Dst != 1 || comms[0].Demand != 3 {
		t.Fatalf("commodity = %+v", comms[0])
	}
}

func TestCommoditiesTotalDemand(t *testing.T) {
	ss := serverSwitchesFor(t, 15, 8, 4, 3)
	p := RandomPermutation(ss, rng.New(3))
	var total float64
	for _, c := range p.Commodities() {
		total += c.Demand
	}
	if total != float64(len(ss)) {
		t.Fatalf("total demand = %v, want %d", total, len(ss))
	}
}

// Intra-switch flows never touch the network, but Commodities keeps
// them as src == dst commodities for the solver to skip.
func TestIntraSwitchFlows(t *testing.T) {
	p := &Pattern{
		ServerSwitch: []int{0, 0, 1},
		Flows: []Flow{
			{SrcServer: 0, DstServer: 1, SrcSwitch: 0, DstSwitch: 0},
			{SrcServer: 2, DstServer: 0, SrcSwitch: 1, DstSwitch: 0},
		},
	}
	comms := p.Commodities()
	if len(comms) != 2 || comms[0].Src != 0 || comms[0].Dst != 0 || comms[0].Demand != 1 {
		t.Fatalf("commodities = %+v, want the intra-switch flow first as 0→0", comms)
	}
}

func TestAllToAllDemand(t *testing.T) {
	ss := []int{0, 0, 1, 2} // 4 servers across 3 switches
	comms := AllToAll(ss)
	var total float64
	for _, c := range comms {
		if c.Src == c.Dst {
			t.Fatal("self commodity present")
		}
		total += c.Demand
	}
	// Total inter-switch demand: all pairs except the intra-switch pair
	// (2 ordered pairs on switch 0) = (12-2)/3 ... each server sources
	// (n-1)·1/(n-1) = 1 unit total including intra; intra pairs are 2
	// ordered pairs at 1/3 each.
	want := float64(4) - 2.0/3.0
	if math.Abs(total-want) > 1e-9 {
		t.Fatalf("total inter-switch demand = %v, want %v", total, want)
	}
}

func TestAllToAllTiny(t *testing.T) {
	if AllToAll([]int{0}) != nil {
		t.Fatal("single server all-to-all should be nil")
	}
}

func TestHotspotRedirectsFlows(t *testing.T) {
	ss := serverSwitchesFor(t, 12, 6, 3, 5)
	hot := 0
	p := Hotspot(ss, hot, 0.5, rng.New(5))
	toHot := 0
	for _, f := range p.Flows {
		if f.DstSwitch == hot {
			toHot++
		}
	}
	// At least a third of flows should now target the hot switch.
	if toHot < len(ss)/3 {
		t.Fatalf("only %d/%d flows to hot switch", toHot, len(ss))
	}
}

func TestPermutationDeterministic(t *testing.T) {
	ss := serverSwitchesFor(t, 10, 6, 3, 7)
	a := RandomPermutation(ss, rng.New(9))
	b := RandomPermutation(ss, rng.New(9))
	for i := range a.Flows {
		if a.Flows[i] != b.Flows[i] {
			t.Fatal("same seed produced different permutations")
		}
	}
}
