package estimate

import (
	"math"
	"testing"

	"jellyfish/internal/graph"
	"jellyfish/internal/rng"
	"jellyfish/internal/topology"
)

func TestRRGCrossingLowerBoundClamped(t *testing.T) {
	if b := rrgCrossingLowerBound(100, 1); b != 0 {
		t.Fatalf("bound = %v for r=1, want 0 (clamped)", b)
	}
}

func TestRRGCrossingLowerBoundGrowth(t *testing.T) {
	// Bound is linear in n and increasing in r (for r past the clamp).
	b1 := rrgCrossingLowerBound(100, 16)
	b2 := rrgCrossingLowerBound(200, 16)
	if math.Abs(b2-2*b1) > 1e-9 {
		t.Fatalf("bound not linear in n: %v vs %v", b1, b2)
	}
	if rrgCrossingLowerBound(100, 32) <= b1 {
		t.Fatal("bound not increasing in r")
	}
}

func TestRRGNormalizedBisectionApproachesHalfLinks(t *testing.T) {
	// As r→∞ the crossing bound approaches n·r/4 = half of the n·r/2
	// links (§4.1).
	n := 1000
	r := 10000
	frac := rrgCrossingLowerBound(n, r) / (float64(n*r) / 2)
	if frac < 0.45 || frac > 0.5 {
		t.Fatalf("crossing fraction = %v, want → 0.5", frac)
	}
}

// Paper Fig. 2(a) headline: with the same equipment as a 16,000-server
// fat-tree, Jellyfish supports >20,000 servers at full bisection.
func TestJellyfishBeatsFatTreeAtFullBisection(t *testing.T) {
	// Fat-tree with k=40 ports: 16,000 servers, 2,000 switches.
	k := 40
	ftServers := k * k * k / 4
	ftSwitches := 5 * k * k / 4
	jfServers, r := MaxServersAtFullBisection(ftSwitches, k)
	if jfServers <= ftServers {
		t.Fatalf("jellyfish %d servers (r=%d) not above fat-tree %d", jfServers, r, ftServers)
	}
	// The paper reports >20,000 for this configuration.
	if jfServers < 20000 {
		t.Fatalf("jellyfish servers = %d, paper reports >20000", jfServers)
	}
}

func TestMaxServersAtFullBisectionSmall(t *testing.T) {
	servers, r := MaxServersAtFullBisection(720, 24)
	if servers <= 0 || r <= 0 || r >= 24 {
		t.Fatalf("servers=%d r=%d", servers, r)
	}
	// The chosen design must itself be at full bisection.
	if RRGNormalizedBisection(720, 24, r) < 1 {
		t.Fatal("returned design below full bisection")
	}
}

func TestMinPortsForServers(t *testing.T) {
	ports, n, r := MinPortsForServers(3456, 24)
	if ports == 0 {
		t.Fatal("no feasible design found")
	}
	if n*(24-r) < 3456 {
		t.Fatalf("design n=%d r=%d supports %d servers < 3456", n, r, n*(24-r))
	}
	// Fig. 2(b): Jellyfish is cheaper than the fat-tree at equal servers.
	// Fat-tree with k=24 has 3456 servers and 720 switches → 17280 ports.
	if ports >= 17280 {
		t.Fatalf("jellyfish ports = %d, fat-tree needs 17280", ports)
	}
}

func TestMinPortsInfeasible(t *testing.T) {
	// Tiny port count cannot reach full bisection for a large server pool.
	if ports, _, _ := MinPortsForServers(100000, 3); ports != 0 {
		t.Fatalf("ports = %d for infeasible design, want 0", ports)
	}
}

func TestKLBisectionPathGraph(t *testing.T) {
	// Path of 8 vertices: optimal balanced bisection cuts exactly 1 edge.
	g := graph.New(8)
	for i := 0; i < 7; i++ {
		g.AddEdge(i, i+1)
	}
	cut, side := KLBisection(g, nil, 8, rng.New(1))
	if cut != 1 {
		t.Fatalf("path graph cut = %d, want 1", cut)
	}
	count := 0
	for _, s := range side {
		if s {
			count++
		}
	}
	if count != 4 {
		t.Fatalf("unbalanced sides: %d/8", count)
	}
}

func TestKLBisectionTwoCliques(t *testing.T) {
	// Two K5s joined by one bridge: optimal cut = 1.
	g := graph.New(10)
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			g.AddEdge(a, b)
			g.AddEdge(a+5, b+5)
		}
	}
	g.AddEdge(0, 5)
	cut, _ := KLBisection(g, nil, 8, rng.New(2))
	if cut != 1 {
		t.Fatalf("two-clique cut = %d, want 1", cut)
	}
}

// Two K5s joined by one bridge carry 2 servers per switch: the bridge is
// the cut, over half of 20 servers. K6 with one server each cuts 9 links
// for 3 servers' worth of NIC rate and caps at 1; no servers gives 0.
func TestNormalizedKLBisection(t *testing.T) {
	g := graph.New(10)
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			g.AddEdge(a, b)
			g.AddEdge(a+5, b+5)
		}
	}
	g.AddEdge(0, 5)
	two := []int{2, 2, 2, 2, 2, 2, 2, 2, 2, 2}
	if got := NormalizedKLBisection(g, two, rng.New(2)); got != 0.1 {
		t.Fatalf("two-clique normalized bisection = %v, want 0.1", got)
	}
	if got := NormalizedKLBisection(g, make([]int, 10), rng.New(2)); got != 0 {
		t.Fatalf("serverless normalized bisection = %v, want 0", got)
	}
	k6 := graph.New(6)
	for a := 0; a < 6; a++ {
		for b := a + 1; b < 6; b++ {
			k6.AddEdge(a, b)
		}
	}
	if got := NormalizedKLBisection(k6, []int{1, 1, 1, 1, 1, 1}, rng.New(3)); got != 1 {
		t.Fatalf("K6 normalized bisection = %v, want the cap 1", got)
	}
}

func TestKLBisectionRespectsWeights(t *testing.T) {
	// Vertex 0 has weight 4 (= all others combined); it must sit alone.
	g := graph.New(5)
	for v := 1; v < 5; v++ {
		g.AddEdge(0, v)
	}
	w := []int{4, 1, 1, 1, 1}
	_, side := KLBisection(g, w, 8, rng.New(3))
	wA, wB := 0, 0
	for v, s := range side {
		if s {
			wB += w[v]
		} else {
			wA += w[v]
		}
	}
	if wA != 4 || wB != 4 {
		t.Fatalf("weights split %d/%d, want 4/4", wA, wB)
	}
}

// KL cut on a Jellyfish should be consistent with (not far below) the
// Bollobás bound at moderate size — the bound says ALMOST every split has
// at least that many crossing edges.
func TestKLCutVsBollobasBound(t *testing.T) {
	n, k, r := 60, 10, 6
	top := topology.Jellyfish(n, k, r, rng.New(7))
	cut, _ := KLBisection(top.Graph, nil, 6, rng.New(8))
	bound := rrgCrossingLowerBound(n, r)
	if float64(cut) < bound {
		t.Fatalf("KL found cut %d below Bollobás bound %v", cut, bound)
	}
	// And KL should find something below the trivial expectation n·r/4.
	if float64(cut) > float64(n*r)/4+float64(n) {
		t.Fatalf("KL cut %d implausibly large", cut)
	}
}
