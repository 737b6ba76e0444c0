package graph

import (
	"math/rand"
	"testing"
)

// diamondGraph:  0-1, 0-2, 1-3, 2-3, plus long detour 0-4, 4-5, 5-3.
func diamondGraph() *Graph {
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	g.AddEdge(0, 4)
	g.AddEdge(4, 5)
	g.AddEdge(5, 3)
	return g
}

func TestKShortestDiamond(t *testing.T) {
	g := diamondGraph()
	ps := NewKSPEngine(g).Paths(0, 3, 4)
	if len(ps) != 3 {
		t.Fatalf("got %d paths, want 3: %v", len(ps), ps)
	}
	if len(ps[0]) != 3 || len(ps[1]) != 3 || len(ps[2]) != 4 {
		t.Fatalf("path sizes = %d,%d,%d nodes, want 3,3,4", len(ps[0]), len(ps[1]), len(ps[2]))
	}
	// Deterministic tie-break: 0-1-3 before 0-2-3.
	if !ps[0].Equal(Path{0, 1, 3}) || !ps[1].Equal(Path{0, 2, 3}) {
		t.Fatalf("tie-break order wrong: %v", ps[:2])
	}
	if !ps[2].Equal(Path{0, 4, 5, 3}) {
		t.Fatalf("third path = %v", ps[2])
	}
}

func TestKShortestLooplessAndValid(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 6 + r.Intn(20)
		g := New(n)
		for i := 0; i < 3*n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		src, dst := 0, n-1
		ps := NewKSPEngine(g).Paths(src, dst, 8)
		seen := map[string]bool{}
		prevLen := 0
		for _, p := range ps {
			if p[0] != src || p[len(p)-1] != dst {
				t.Fatalf("path endpoints wrong: %v", p)
			}
			// Valid edges.
			for i := 0; i+1 < len(p); i++ {
				if !g.HasEdge(p[i], p[i+1]) {
					t.Fatalf("path uses non-edge: %v", p)
				}
			}
			// Loopless.
			nodes := map[int]bool{}
			for _, v := range p {
				if nodes[v] {
					t.Fatalf("path has loop: %v", p)
				}
				nodes[v] = true
			}
			// Unique.
			key := ""
			for _, v := range p {
				key += string(rune(v)) + ","
			}
			if seen[key] {
				t.Fatalf("duplicate path: %v", p)
			}
			seen[key] = true
			// Nondecreasing length.
			if len(p)-1 < prevLen {
				t.Fatalf("paths out of order: %v", ps)
			}
			prevLen = len(p) - 1
		}
		// First path must be a true shortest path.
		if len(ps) > 0 {
			d := g.BFS(src)
			if len(ps[0])-1 != d[dst] {
				t.Fatalf("first path len %d != BFS %d", len(ps[0])-1, d[dst])
			}
		}
	}
}

func TestKShortestUnreachable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	if ps := NewKSPEngine(g).Paths(0, 3, 5); ps != nil {
		t.Fatalf("got paths to unreachable vertex: %v", ps)
	}
}

func TestKShortestKZero(t *testing.T) {
	g := diamondGraph()
	if ps := NewKSPEngine(g).Paths(0, 3, 0); ps != nil {
		t.Fatalf("k=0 returned %v", ps)
	}
}

func TestKShortestSingleVertex(t *testing.T) {
	g := New(1)
	ps := NewKSPEngine(g).Paths(0, 0, 3)
	if len(ps) != 1 || !ps[0].Equal(Path{0}) {
		t.Fatalf("self path = %v", ps)
	}
}

func TestKShortestExhaustsCandidates(t *testing.T) {
	// Path graph has exactly one loopless path between ends.
	g := New(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1)
	}
	ps := NewKSPEngine(g).Paths(0, 4, 10)
	if len(ps) != 1 {
		t.Fatalf("got %d paths on a path graph, want 1", len(ps))
	}
}

func TestKShortestRingCount(t *testing.T) {
	// A ring has exactly two loopless paths between any pair.
	g := ringGraph(7)
	ps := NewKSPEngine(g).Paths(0, 3, 10)
	if len(ps) != 2 {
		t.Fatalf("got %d paths on ring, want 2: %v", len(ps), ps)
	}
	if len(ps[0]) != 4 || len(ps[1]) != 5 {
		t.Fatalf("ring path sizes = %d, %d nodes, want 4, 5", len(ps[0]), len(ps[1]))
	}
}
