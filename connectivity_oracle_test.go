package jellyfish

import (
	"fmt"
	"math/rand"
	"testing"

	"jellyfish/internal/graph"
	"jellyfish/internal/rng"
	"jellyfish/internal/topology"
)

// bruteMinCut returns the global edge connectivity by definition: the
// minimum number of edges crossing δ(S) over every nonempty proper vertex
// subset S. Fixing vertex 0 outside S visits each cut once. Graphs with
// fewer than 2 vertices have no proper subset and report 0.
func bruteMinCut(g *graph.Graph) int {
	n := g.N()
	if n < 2 {
		return 0
	}
	best := g.M()
	for mask := 1; mask < 1<<(n-1); mask++ {
		in := func(v int) bool { return v > 0 && mask>>(v-1)&1 == 1 }
		cut := 0
		for _, e := range g.Edges() {
			if in(e.U) != in(e.V) {
				cut++
			}
		}
		best = min(best, cut)
	}
	return best
}

// connectivityInstances generates small graphs (at most 12 vertices) with
// known structure plus random ones, keyed by a readable name.
func connectivityInstances() map[string]*graph.Graph {
	out := map[string]*graph.Graph{}
	add := func(name string, n int, edges func(g *graph.Graph)) {
		g := graph.New(n)
		edges(g)
		out[name] = g
	}
	for n := 0; n <= 2; n++ {
		add(fmt.Sprintf("empty-%d", n), n, func(*graph.Graph) {})
	}
	for n := 3; n <= 12; n++ {
		add(fmt.Sprintf("ring-%d", n), n, func(g *graph.Graph) {
			for i := 0; i < n; i++ {
				g.AddEdge(i, (i+1)%n)
			}
		})
	}
	for n := 2; n <= 12; n++ {
		add(fmt.Sprintf("path-%d", n), n, func(g *graph.Graph) {
			for i := 0; i+1 < n; i++ {
				g.AddEdge(i, i+1)
			}
		})
	}
	for n := 2; n <= 10; n++ {
		add(fmt.Sprintf("K%d", n), n, func(g *graph.Graph) {
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					g.AddEdge(u, v)
				}
			}
		})
	}
	for a := 1; a <= 4; a++ {
		for b := a; b <= 6; b++ {
			add(fmt.Sprintf("K%d,%d", a, b), a+b, func(g *graph.Graph) {
				for u := 0; u < a; u++ {
					for v := a; v < a+b; v++ {
						g.AddEdge(u, v)
					}
				}
			})
		}
	}
	add("petersen", 10, func(g *graph.Graph) {
		for i := 0; i < 5; i++ {
			g.AddEdge(i, (i+1)%5)
			g.AddEdge(i, i+5)
			g.AddEdge(5+i, 5+(i+2)%5)
		}
	})
	add("Q3", 8, func(g *graph.Graph) {
		for u := 0; u < 8; u++ {
			for bit := 1; bit < 8; bit <<= 1 {
				if u&bit == 0 {
					g.AddEdge(u, u|bit)
				}
			}
		}
	})
	add("K4+K4-disjoint", 8, func(g *graph.Graph) {
		for _, base := range []int{0, 4} {
			for u := base; u < base+4; u++ {
				for v := u + 1; v < base+4; v++ {
					g.AddEdge(u, v)
				}
			}
		}
	})
	add("K5+isolated", 6, func(g *graph.Graph) {
		for u := 1; u < 6; u++ {
			for v := u + 1; v < 6; v++ {
				g.AddEdge(u, v)
			}
		}
	})
	for seed := uint64(0); seed < 12; seed++ {
		n := 6 + int(seed%7)
		r := 2 + int(seed%4)
		if r >= n {
			r = n - 1
		}
		out[fmt.Sprintf("rrg-%d-%d-seed%d", n, r, seed)] = topology.Jellyfish(n, r+1, r, rng.New(seed)).Graph
	}
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(11)
		p := 0.2 + 0.6*r.Float64()
		add(fmt.Sprintf("gnp-%d-trial%d", n, trial), n, func(g *graph.Graph) {
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if r.Float64() < p {
						g.AddEdge(u, v)
					}
				}
			}
		})
	}
	return out
}

// EdgeConnectivity equals the brute-force global minimum cut on every
// generated instance of up to 12 vertices.
func TestEdgeConnectivityMatchesBruteMinCut(t *testing.T) {
	instances := connectivityInstances()
	// The oracle itself, on instances whose connectivity is known.
	for name, want := range map[string]int{
		"empty-0": 0, "empty-1": 0, "empty-2": 0, "ring-12": 2, "path-12": 1, "K10": 9,
		"K3,5": 3, "petersen": 3, "Q3": 3, "K4+K4-disjoint": 0, "K5+isolated": 0,
	} {
		if got := bruteMinCut(instances[name]); got != want {
			t.Fatalf("bruteMinCut(%s) = %d, want %d", name, got, want)
		}
	}
	for name, g := range instances {
		if got, want := EdgeConnectivity(&Topology{Graph: g}), bruteMinCut(g); got != want {
			t.Errorf("%s (n=%d m=%d): EdgeConnectivity = %d, brute-force min cut = %d", name, g.N(), g.M(), got, want)
		}
	}
}
