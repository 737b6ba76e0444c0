package graph

import (
	"math/rand"
	"testing"
)

func TestBridgesPathGraph(t *testing.T) {
	g := New(4)
	for i := 0; i < 3; i++ {
		g.AddEdge(i, i+1)
	}
	bs := g.Bridges()
	if len(bs) != 3 {
		t.Fatalf("path graph bridges = %v, want all 3 edges", bs)
	}
}

func TestBridgesRingHasNone(t *testing.T) {
	if bs := ringGraph(8).Bridges(); len(bs) != 0 {
		t.Fatalf("ring has bridges: %v", bs)
	}
}

func TestBridgesBarbell(t *testing.T) {
	// Two triangles joined by one edge: exactly that edge is a bridge.
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	g.AddEdge(3, 5)
	g.AddEdge(2, 3)
	bs := g.Bridges()
	if len(bs) != 1 || bs[0] != (Edge{2, 3}) {
		t.Fatalf("barbell bridges = %v, want [{2 3}]", bs)
	}
}

func TestBridgesDisconnected(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	bs := g.Bridges()
	if len(bs) != 2 {
		t.Fatalf("bridges = %v, want both isolated edges", bs)
	}
}

// Property: an edge is a bridge iff removing it disconnects its
// endpoints — verified against brute force on random graphs.
func TestBridgesMatchBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 4 + r.Intn(15)
		g := New(n)
		for i := 0; i < n+r.Intn(n); i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		got := map[Edge]bool{}
		for _, b := range g.Bridges() {
			got[b] = true
		}
		for _, e := range g.Edges() {
			g.RemoveEdge(e.U, e.V)
			isBridge := g.BFS(e.U)[e.V] == Unreachable
			g.AddEdge(e.U, e.V)
			if got[e] != isBridge {
				t.Fatalf("trial %d edge %v: tarjan=%v brute=%v", trial, e, got[e], isBridge)
			}
		}
	}
}
