package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("got n=%d m=%d, want 5, 0", g.N(), g.M())
	}
	if g.Connected() {
		// 5 isolated vertices are not connected.
		t.Fatal("empty 5-vertex graph reported connected")
	}
}

func TestNewZeroAndOne(t *testing.T) {
	if !New(0).Connected() {
		t.Error("0-vertex graph should be connected")
	}
	if !New(1).Connected() {
		t.Error("1-vertex graph should be connected")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(4)
	if !g.AddEdge(0, 1) {
		t.Fatal("AddEdge(0,1) = false on empty graph")
	}
	if g.AddEdge(1, 0) {
		t.Fatal("duplicate edge (reversed) accepted")
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("HasEdge not symmetric")
	}
	if g.HasEdge(0, 0) {
		t.Fatal("self-loop reported present")
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 || g.Degree(2) != 0 {
		t.Fatal("degrees wrong after one edge")
	}
}

func TestAddEdgeSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop did not panic")
		}
	}()
	New(2).AddEdge(1, 1)
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range edge did not panic")
		}
	}()
	New(2).AddEdge(0, 2)
}

func TestRemoveEdge(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if !g.RemoveEdge(1, 0) {
		t.Fatal("RemoveEdge(1,0) = false")
	}
	if g.HasEdge(0, 1) {
		t.Fatal("edge still present after removal")
	}
	if g.M() != 1 {
		t.Fatalf("M = %d after removal, want 1", g.M())
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("removing absent edge returned true")
	}
	if g.Degree(1) != 1 {
		t.Fatalf("Degree(1) = %d, want 1", g.Degree(1))
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New(6)
	for _, v := range []int{5, 2, 4, 1} {
		g.AddEdge(0, v)
	}
	ns := g.Neighbors(0)
	want := []int{1, 2, 4, 5}
	if len(ns) != len(want) {
		t.Fatalf("neighbors = %v, want %v", ns, want)
	}
	for i := range want {
		if ns[i] != want[i] {
			t.Fatalf("neighbors = %v, want %v", ns, want)
		}
	}
}

func TestEdgesCanonical(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 1)
	g.AddEdge(0, 2)
	es := g.Edges()
	if len(es) != 2 {
		t.Fatalf("got %d edges, want 2", len(es))
	}
	for _, e := range es {
		if e.U >= e.V {
			t.Fatalf("edge %v not canonical", e)
		}
	}
	if es[0] != (Edge{0, 2}) || es[1] != (Edge{1, 3}) {
		t.Fatalf("edges = %v, want [{0 2} {1 3}]", es)
	}
}

func TestCanon(t *testing.T) {
	if Canon(5, 2) != (Edge{2, 5}) {
		t.Fatal("Canon(5,2) wrong")
	}
	if Canon(2, 5) != (Edge{2, 5}) {
		t.Fatal("Canon(2,5) wrong")
	}
}

func TestClone(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	c := g.Clone()
	c.AddEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Fatal("mutating clone affected original")
	}
	if c.M() != 2 || g.M() != 1 {
		t.Fatal("edge counts wrong after clone mutation")
	}
}

func TestAddVertex(t *testing.T) {
	g := New(2)
	id := g.AddVertex()
	if id != 2 || g.N() != 3 {
		t.Fatalf("AddVertex returned %d (n=%d), want 2 (n=3)", id, g.N())
	}
	g.AddEdge(2, 0)
	if !g.HasEdge(0, 2) {
		t.Fatal("edge to new vertex missing")
	}
}

func TestConnectedPathGraph(t *testing.T) {
	g := New(10)
	for i := 0; i < 9; i++ {
		g.AddEdge(i, i+1)
	}
	if !g.Connected() {
		t.Fatal("path graph not connected")
	}
	g.RemoveEdge(4, 5)
	if g.Connected() {
		t.Fatal("cut path graph still connected")
	}
}

func TestDegreeExtremes(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	if g.Degree(0) != 3 || g.Degree(3) != 1 {
		t.Fatalf("hub=%d leaf=%d, want 3, 1", g.Degree(0), g.Degree(3))
	}
	if New(2).Degree(1) != 0 {
		t.Fatal("isolated vertex should have degree 0")
	}
	if g.IsRegular(1) {
		t.Fatal("star graph reported regular")
	}
	k4 := completeGraph(4)
	if !k4.IsRegular(3) {
		t.Fatal("K4 not reported 3-regular")
	}
}

func completeGraph(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

func ringGraph(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

func TestBFSRing(t *testing.T) {
	g := ringGraph(8)
	d := g.BFS(0)
	want := []int{0, 1, 2, 3, 4, 3, 2, 1}
	for i, w := range want {
		if d[i] != w {
			t.Fatalf("dist[%d] = %d, want %d", i, d[i], w)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	d := g.BFS(0)
	if d[2] != Unreachable {
		t.Fatalf("dist[2] = %d, want Unreachable", d[2])
	}
}

func TestAllPairsStatsComplete(t *testing.T) {
	g := completeGraph(5)
	s := g.AllPairsStats()
	if s.Mean != 1 || s.Diameter != 1 {
		t.Fatalf("K5 stats mean=%v diam=%d", s.Mean, s.Diameter)
	}
	if s.Pairs != 20 {
		t.Fatalf("K5 pairs = %d, want 20", s.Pairs)
	}
	if !s.Connected {
		t.Fatal("K5 reported disconnected")
	}
}

func TestAllPairsStatsRing(t *testing.T) {
	g := ringGraph(6)
	s := g.AllPairsStats()
	// Ring of 6: each vertex sees distances 1,1,2,2,3 -> mean 9/5.
	if s.Diameter != 3 {
		t.Fatalf("diameter = %d, want 3", s.Diameter)
	}
	if want := 9.0 / 5.0; s.Mean != want {
		t.Fatalf("mean = %v, want %v", s.Mean, want)
	}
	if s.Hist[1] != 12 || s.Hist[2] != 12 || s.Hist[3] != 6 {
		t.Fatalf("hist = %v", s.Hist)
	}
}

func TestPairsStatsSubset(t *testing.T) {
	g := ringGraph(8)
	s := g.PairsStats([]int{0, 4})
	if s.Pairs != 2 || s.Mean != 4 || s.Diameter != 4 {
		t.Fatalf("subset stats = %+v", s)
	}
}

func TestPathStatsPercentileAndCDF(t *testing.T) {
	g := ringGraph(6)
	s := g.AllPairsStats()
	cdf := s.CDF()
	// P40 is distance 1: 12 of the 30 ordered pairs are adjacent.
	if cdf[1] != 0.4 {
		t.Fatalf("CDF[1] = %v, want 0.4", cdf[1])
	}
	if cdf[3] != 1.0 {
		t.Fatalf("CDF[diam] = %v, want 1", cdf[3])
	}
	if cdf[1] <= 0 || cdf[1] >= cdf[2] {
		t.Fatalf("CDF not increasing: %v", cdf)
	}
}

func TestDiameterAndEccentricity(t *testing.T) {
	g := New(5) // path 0-1-2-3-4
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1)
	}
	if g.Diameter() != 4 {
		t.Fatalf("diameter = %d, want 4", g.Diameter())
	}
	for v, want := range map[int]int{2: 2, 0: 4} {
		ecc := 0
		for _, d := range g.BFS(v) {
			ecc = max(ecc, d)
		}
		if ecc != want {
			t.Fatalf("ecc(%d) = %d, want %d", v, ecc, want)
		}
	}
}

// Property: on random graphs, BFS distances satisfy the triangle-ish
// property dist(v) <= dist(u)+1 for every edge {u,v}, and the first
// k-shortest path's length equals the BFS distance.
func TestBFSPropertyRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(30)
		g := New(n)
		for i := 0; i < 2*n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		d := g.BFS(0)
		for _, e := range g.Edges() {
			du, dv := d[e.U], d[e.V]
			if du != Unreachable && dv != Unreachable {
				if dv > du+1 || du > dv+1 {
					t.Fatalf("BFS violates edge relaxation: d[%d]=%d d[%d]=%d", e.U, du, e.V, dv)
				}
			}
			if (du == Unreachable) != (dv == Unreachable) {
				t.Fatalf("edge spans reachable/unreachable: %v", e)
			}
		}
		ksp := NewKSPEngine(g)
		for v := 1; v < n; v++ {
			ps := ksp.Paths(0, v, 1)
			if d[v] == Unreachable {
				if ps != nil {
					t.Fatalf("path to unreachable %d", v)
				}
				continue
			}
			if len(ps[0])-1 != d[v] {
				t.Fatalf("path len %d != BFS dist %d", len(ps[0])-1, d[v])
			}
		}
	}
}

// Property-based: adding then removing an edge restores the original graph.
func TestAddRemoveRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(20)
		g := New(n)
		for i := 0; i < n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		before := g.Edges()
		u, v := r.Intn(n), (r.Intn(n-1) + 1)
		v = (u + v) % n
		if u == v {
			return true
		}
		had := g.HasEdge(u, v)
		if had {
			g.RemoveEdge(u, v)
			g.AddEdge(u, v)
		} else {
			g.AddEdge(u, v)
			g.RemoveEdge(u, v)
		}
		after := g.Edges()
		if len(before) != len(after) {
			return false
		}
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
