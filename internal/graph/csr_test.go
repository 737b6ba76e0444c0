package graph

import (
	"testing"

	"jellyfish/internal/rng"
)

// randomTestGraph builds a connected graph on n vertices: a ring plus
// roughly n*(r-2)/2 random chords drawn from src.
func randomTestGraph(n, r int, src *rng.Source) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		g.AddEdge(u, (u+1)%n)
	}
	for i := 0; i < n*(r-2)/2; i++ {
		u, v := src.Intn(n), src.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

func TestCSRMatchesGraph(t *testing.T) {
	src := rng.New(7)
	g := randomTestGraph(40, 5, src)
	c := g.CSR()
	if c.N() != g.N() || c.M() != g.M() {
		t.Fatalf("CSR dims n=%d m=%d, graph n=%d m=%d", c.N(), c.M(), g.N(), g.M())
	}
	for u := 0; u < g.N(); u++ {
		ns := g.Neighbors(u)
		cs := c.Neighbors(u)
		if len(ns) != len(cs) || c.Degree(u) != g.Degree(u) {
			t.Fatalf("vertex %d: neighbor count %d vs %d", u, len(cs), len(ns))
		}
		for i, v := range ns {
			if int(cs[i]) != v {
				t.Fatalf("vertex %d slot %d: %d vs %d", u, i, cs[i], v)
			}
		}
	}
	edges := g.Edges()
	cedges := c.Edges()
	if len(edges) != len(cedges) {
		t.Fatalf("edge count %d vs %d", len(cedges), len(edges))
	}
	for i := range edges {
		if edges[i] != cedges[i] {
			t.Fatalf("edge %d: %v vs %v", i, cedges[i], edges[i])
		}
	}
}

func TestCSRArcIDs(t *testing.T) {
	src := rng.New(11)
	g := randomTestGraph(30, 4, src)
	c := g.CSR()
	edges := c.Edges()
	// Arc 2e must be the U→V half-edge of edges[e], arc 2e+1 the V→U one.
	seen := make([]int, 2*c.M())
	for u := 0; u < c.N(); u++ {
		lo, hi := c.Offsets[u], c.Offsets[u+1]
		for i := lo; i < hi; i++ {
			v := int(c.Nbrs[i])
			arc := c.ArcID[i]
			e := edges[arc/2]
			if arc%2 == 0 {
				if e.U != u || e.V != v {
					t.Fatalf("arc %d at (%d,%d): edge %v", arc, u, v, e)
				}
			} else {
				if e.U != v || e.V != u {
					t.Fatalf("arc %d at (%d,%d): edge %v", arc, u, v, e)
				}
			}
			seen[arc]++
		}
	}
	for arc, n := range seen {
		if n != 1 {
			t.Fatalf("arc %d appears %d times", arc, n)
		}
	}
}

func TestCSRSnapshotCachingAndInvalidation(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	c1 := g.CSR()
	if c2 := g.CSR(); c2 != c1 {
		t.Fatal("unmutated graph returned a different snapshot pointer")
	}
	if !g.AddEdge(2, 3) {
		t.Fatal("AddEdge failed")
	}
	c3 := g.CSR()
	if c3 == c1 {
		t.Fatal("snapshot not invalidated by AddEdge")
	}
	if c3.M() != 3 {
		t.Fatalf("snapshot M=%d, want 3", c3.M())
	}
	// Failed mutations must not invalidate.
	if g.AddEdge(2, 3) {
		t.Fatal("duplicate AddEdge succeeded")
	}
	if g.RemoveEdge(0, 3) {
		t.Fatal("RemoveEdge of absent edge succeeded")
	}
	if g.CSR() != c3 {
		t.Fatal("no-op mutations invalidated the snapshot")
	}
	if !g.RemoveEdge(2, 3) {
		t.Fatal("RemoveEdge failed")
	}
	if c4 := g.CSR(); c4 == c3 || c4.M() != 2 {
		t.Fatalf("snapshot not rebuilt after RemoveEdge (m=%d)", c4.M())
	}
	g.AddVertex()
	if c5 := g.CSR(); c5.N() != 5 {
		t.Fatalf("snapshot N=%d after AddVertex, want 5", c5.N())
	}
	// Old snapshots are unaffected by later mutations.
	if c1.N() != 4 || c1.M() != 2 {
		t.Fatalf("old snapshot mutated: n=%d m=%d", c1.N(), c1.M())
	}
}
