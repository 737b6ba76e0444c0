package maxflow

import (
	"math"
	"math/rand"
	"testing"

	"jellyfish/internal/graph"
)

func TestSingleArc(t *testing.T) {
	nw := New(2)
	nw.addArc(0, 1, 3.5)
	if f := nw.MaxFlow(0, 1); f != 3.5 {
		t.Fatalf("flow = %v, want 3.5", f)
	}
}

func TestNoPath(t *testing.T) {
	nw := New(3)
	nw.addArc(0, 1, 1)
	if f := nw.MaxFlow(0, 2); f != 0 {
		t.Fatalf("flow = %v, want 0", f)
	}
}

func TestSeriesBottleneck(t *testing.T) {
	nw := New(3)
	nw.addArc(0, 1, 5)
	nw.addArc(1, 2, 2)
	if f := nw.MaxFlow(0, 2); f != 2 {
		t.Fatalf("flow = %v, want 2", f)
	}
}

func TestParallelPaths(t *testing.T) {
	nw := New(4)
	nw.addArc(0, 1, 1)
	nw.addArc(1, 3, 1)
	nw.addArc(0, 2, 2)
	nw.addArc(2, 3, 2)
	if f := nw.MaxFlow(0, 3); f != 3 {
		t.Fatalf("flow = %v, want 3", f)
	}
}

// Classic CLRS example network.
func TestCLRSExample(t *testing.T) {
	nw := New(6)
	nw.addArc(0, 1, 16)
	nw.addArc(0, 2, 13)
	nw.addArc(1, 2, 10)
	nw.addArc(2, 1, 4)
	nw.addArc(1, 3, 12)
	nw.addArc(3, 2, 9)
	nw.addArc(2, 4, 14)
	nw.addArc(4, 3, 7)
	nw.addArc(3, 5, 20)
	nw.addArc(4, 5, 4)
	if f := nw.MaxFlow(0, 5); f != 23 {
		t.Fatalf("flow = %v, want 23", f)
	}
}

func TestUndirectedEdgeBothDirections(t *testing.T) {
	nw := New(2)
	nw.AddUndirected(0, 1, 2)
	if f := nw.MaxFlow(0, 1); f != 2 {
		t.Fatalf("forward flow = %v, want 2", f)
	}
	nw2 := New(2)
	nw2.AddUndirected(0, 1, 2)
	if f := nw2.MaxFlow(1, 0); f != 2 {
		t.Fatalf("reverse flow = %v, want 2", f)
	}
}

func TestUndirectedRing(t *testing.T) {
	// Unit-capacity ring: two disjoint paths between any pair.
	n := 8
	nw := New(n)
	for i := 0; i < n; i++ {
		nw.AddUndirected(i, (i+1)%n, 1)
	}
	if f := nw.MaxFlow(0, 4); f != 2 {
		t.Fatalf("ring flow = %v, want 2", f)
	}
}

func TestMinCutSide(t *testing.T) {
	nw := New(4)
	nw.addArc(0, 1, 10)
	nw.addArc(1, 2, 1) // bottleneck
	nw.addArc(2, 3, 10)
	f := nw.MaxFlow(0, 3)
	if f != 1 {
		t.Fatalf("flow = %v, want 1", f)
	}
	side := nw.minCutSide(0)
	if !side[0] || !side[1] || side[2] || side[3] {
		t.Fatalf("cut side = %v, want [true true false false]", side)
	}
}

func TestSameSourceSink(t *testing.T) {
	nw := New(2)
	nw.addArc(0, 1, 1)
	if f := nw.MaxFlow(0, 0); !math.IsInf(f, 1) {
		t.Fatalf("s==t flow = %v, want +Inf", f)
	}
}

// Property: on a random r-regular-ish unit-capacity undirected graph, the
// s-t max flow equals min(deg(s), deg(t)) at most and is at least 1 when
// connected. Also verify flow equals capacity across the returned cut.
func TestFlowEqualsCutCapacity(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		n := 6 + r.Intn(15)
		g := graph.New(n)
		for i := 0; i < 3*n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		nw := New(n)
		for _, e := range g.Edges() {
			nw.AddUndirected(e.U, e.V, 1)
		}
		s, tt := 0, n-1
		f := nw.MaxFlow(s, tt)
		side := nw.minCutSide(s)
		if side[tt] && f > 0 {
			t.Fatal("sink on source side of cut with positive flow")
		}
		// Cut capacity = number of original edges crossing the side split.
		cut := 0.0
		for _, e := range g.Edges() {
			if side[e.U] != side[e.V] {
				cut++
			}
		}
		if math.Abs(f-cut) > 1e-9 {
			t.Fatalf("flow %v != cut capacity %v", f, cut)
		}
		// Flow cannot exceed either endpoint degree.
		if f > float64(g.Degree(s)) || f > float64(g.Degree(tt)) {
			t.Fatalf("flow %v exceeds endpoint degree", f)
		}
	}
}

// The paper cites that an r-regular random graph is almost surely
// r-connected; verify EdgeConnectivity-style flows on a known r-regular
// graph (complete bipartite K4,4 is 4-regular and 4-edge-connected).
func TestK44EdgeConnectivity(t *testing.T) {
	nw := New(8)
	for u := 0; u < 4; u++ {
		for v := 4; v < 8; v++ {
			nw.AddUndirected(u, v, 1)
		}
	}
	if f := nw.MaxFlow(0, 1); f != 4 {
		t.Fatalf("K4,4 same-side flow = %v, want 4", f)
	}
}

// addArc adds a directed arc u->v with capacity c and a zero-capacity
// reverse arc, for the directed textbook networks above; production
// builds only undirected networks.
func (nw *Network) addArc(u, v int, c float64) {
	id := len(nw.to)
	nw.to = append(nw.to, v, u)
	nw.cap = append(nw.cap, c, 0)
	nw.head[u] = append(nw.head[u], id)
	nw.head[v] = append(nw.head[v], id+1)
}

// minCutSide returns, after MaxFlow(s,t), the set of vertices reachable
// from s in the residual network: the s-side of a minimum cut.
func (nw *Network) minCutSide(s int) []bool {
	side := make([]bool, nw.n)
	queue := []int{s}
	side[s] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, a := range nw.head[u] {
			v := nw.to[a]
			if nw.cap[a] > eps && !side[v] {
				side[v] = true
				queue = append(queue, v)
			}
		}
	}
	return side
}
