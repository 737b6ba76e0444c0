package graph

import (
	"math/rand"
	"testing"
)

// unitMaxFlow is the uncapped s→t max flow of g's unit-capacity network.
func unitMaxFlow(g *Graph, s, t int) (int, *unitFlow) {
	f := newUnitFlow(g.CSR())
	return f.maxFlow(s, t, g.M()+1), f
}

// minCutSide returns, after a max flow from s, the vertices s still
// reaches in the residual network: the s-side of a minimum cut.
func (f *unitFlow) minCutSide(s int) []bool {
	side := make([]bool, len(f.via))
	for v, e := range f.via {
		side[v] = v == s || e >= 0
	}
	return side
}

func TestNoPath(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	if f, _ := unitMaxFlow(g, 0, 2); f != 0 {
		t.Fatalf("flow = %v, want 0", f)
	}
}

func TestUndirectedEdgeBothDirections(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1)
	if f, _ := unitMaxFlow(g, 0, 1); f != 1 {
		t.Fatalf("forward flow = %v, want 1", f)
	}
	if f, _ := unitMaxFlow(g, 1, 0); f != 1 {
		t.Fatalf("reverse flow = %v, want 1", f)
	}
}

func TestUndirectedRing(t *testing.T) {
	// Unit-capacity ring: two disjoint paths between any pair.
	n := 8
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	if f, _ := unitMaxFlow(g, 0, 4); f != 2 {
		t.Fatalf("ring flow = %v, want 2", f)
	}
}

// Two K4s joined by the bridge 3–4: the bridge is the only min cut.
func TestMinCutSide(t *testing.T) {
	g := New(8)
	for _, base := range []int{0, 4} {
		for u := base; u < base+4; u++ {
			for v := u + 1; v < base+4; v++ {
				g.AddEdge(u, v)
			}
		}
	}
	g.AddEdge(3, 4)
	f, nw := unitMaxFlow(g, 0, 7)
	if f != 1 {
		t.Fatalf("flow = %v, want 1", f)
	}
	side := nw.minCutSide(0)
	for v, in := range side {
		if in != (v < 4) {
			t.Fatalf("cut side = %v, want the first K4", side)
		}
	}
}

// Property: on a random unit-capacity undirected graph, the s-t max flow
// equals the number of edges crossing the returned cut and is at most
// either endpoint's degree.
func TestFlowEqualsCutCapacity(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		n := 6 + r.Intn(15)
		g := New(n)
		for i := 0; i < 3*n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		s, tt := 0, n-1
		f, nw := unitMaxFlow(g, s, tt)
		side := nw.minCutSide(s)
		if side[tt] {
			t.Fatal("sink on source side of the cut")
		}
		// Cut capacity = number of original edges crossing the side split.
		cut := 0
		for _, e := range g.Edges() {
			if side[e.U] != side[e.V] {
				cut++
			}
		}
		if f != cut {
			t.Fatalf("flow %v != cut capacity %v", f, cut)
		}
		// Flow cannot exceed either endpoint degree.
		if f > g.Degree(s) || f > g.Degree(tt) {
			t.Fatalf("flow %v exceeds endpoint degree", f)
		}
	}
}

// Complete bipartite K4,4 is 4-regular and 4-edge-connected: four
// edge-disjoint paths join two vertices on the same side.
func TestK44EdgeConnectivity(t *testing.T) {
	g := New(8)
	for u := 0; u < 4; u++ {
		for v := 4; v < 8; v++ {
			g.AddEdge(u, v)
		}
	}
	if f, _ := unitMaxFlow(g, 0, 1); f != 4 {
		t.Fatalf("K4,4 same-side flow = %v, want 4", f)
	}
	if c := EdgeConnectivity(g); c != 4 {
		t.Fatalf("K4,4 connectivity = %d, want 4", c)
	}
}

// One residual array serves every sink: a sink whose search stopped at
// the limit leaves saturated residuals, which the next sink must not see.
func TestUnitFlowResetsBetweenSinks(t *testing.T) {
	g := New(4)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			g.AddEdge(u, v)
		}
	}
	f := newUnitFlow(g.CSR())
	if got := f.maxFlow(0, 1, 2); got != 2 {
		t.Fatalf("capped flow = %d, want 2", got)
	}
	for sink := 1; sink < 4; sink++ {
		if got := f.maxFlow(0, sink, 4); got != 3 {
			t.Fatalf("K4 flow 0→%d = %d, want 3", sink, got)
		}
	}
}
