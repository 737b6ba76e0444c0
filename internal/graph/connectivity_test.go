package graph_test

import (
	"testing"

	"jellyfish/internal/graph"
	"jellyfish/internal/rng"
	"jellyfish/internal/topology"
)

// EdgeConnectivity lets the tests below call the function unqualified.
var EdgeConnectivity = graph.EdgeConnectivity

func TestEdgeConnectivityRing(t *testing.T) {
	g := graph.New(8)
	for i := 0; i < 8; i++ {
		g.AddEdge(i, (i+1)%8)
	}
	if c := EdgeConnectivity(g); c != 2 {
		t.Fatalf("ring connectivity = %d, want 2", c)
	}
}

func TestEdgeConnectivityPath(t *testing.T) {
	g := graph.New(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1)
	}
	if c := EdgeConnectivity(g); c != 1 {
		t.Fatalf("path connectivity = %d, want 1", c)
	}
}

func TestEdgeConnectivityDisconnected(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	if c := EdgeConnectivity(g); c != 0 {
		t.Fatalf("disconnected graph connectivity = %d, want 0", c)
	}
}

func TestEdgeConnectivityComplete(t *testing.T) {
	g := graph.New(6)
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			g.AddEdge(u, v)
		}
	}
	if c := EdgeConnectivity(g); c != 5 {
		t.Fatalf("K6 connectivity = %d, want 5", c)
	}
}

func TestEdgeConnectivityTiny(t *testing.T) {
	if EdgeConnectivity(graph.New(1)) != 0 {
		t.Fatal("single vertex connectivity != 0")
	}
	if EdgeConnectivity(graph.New(0)) != 0 {
		t.Fatal("empty graph connectivity != 0")
	}
}

// Paper §4.3: an r-regular random graph is almost surely r-connected.
// Verify on a handful of Jellyfish instances.
func TestJellyfishIsRConnected(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		r := 6
		top := topology.Jellyfish(30, 10, r, rng.New(seed))
		if c := EdgeConnectivity(top.Graph); c != r {
			t.Fatalf("seed %d: RRG edge connectivity = %d, want %d", seed, c, r)
		}
	}
}

// Hoffman–Singleton (7-regular Moore graph) is 7-edge-connected.
func TestHoffmanSingletonConnectivity(t *testing.T) {
	if c := EdgeConnectivity(topology.HoffmanSingleton()); c != 7 {
		t.Fatalf("HS connectivity = %d, want 7", c)
	}
}
