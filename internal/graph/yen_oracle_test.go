package graph_test

import (
	"fmt"
	"math/rand"
	"testing"

	"jellyfish/internal/capsearch"
	"jellyfish/internal/graph"
	"jellyfish/internal/rng"
	"jellyfish/internal/routing"
	"jellyfish/internal/topology"
	"jellyfish/internal/traffic"
)

// oracleKs are the path counts each generated instance is checked at:
// the paper's 8 and values on either side of it.
var oracleKs = []int{1, 2, 8, 16, 64}

// oracleTriples turns switch pairs into (src, dst, k) triples: every pair
// at k = 8, and every stride-th pair, plus the self pair of its source,
// at each k in oracleKs.
func oracleTriples(pairs []routing.Pair, stride int) [][3]int {
	var out [][3]int
	for i, p := range pairs {
		out = append(out, [3]int{p.Src, p.Dst, 8})
		if i%stride != 0 {
			continue
		}
		for _, k := range oracleKs {
			out = append(out, [3]int{p.Src, p.Dst, k}, [3]int{p.Src, p.Src, k})
		}
	}
	return out
}

func randomSwitchPairs(n, count int, r *rand.Rand) []routing.Pair {
	pairs := make([]routing.Pair, count)
	for i := range pairs {
		pairs[i] = routing.Pair{Src: r.Intn(n), Dst: r.Intn(n)}
	}
	return pairs
}

// The engine against the reference Yen on generated instances of the
// workloads it serves: Fig. 11's capacity probes, the bipartite fat-tree,
// heterogeneous and disconnected Jellyfish, and a clique hanging off the
// source, where every detour is a dead end, so any search that enumerates
// simple paths without a bound takes exponential time.
func TestKSPEngineMatchesReferenceGenerated(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	t.Run("fig11", func(t *testing.T) {
		// Members of Fig. 11's incremental family at seed 1, built as
		// packetLevelMaxServers builds them, with the probe's first
		// trial's pairs: the densest member (the search's lower bracket)
		// and two sparser ones.
		for _, k := range []int{8, 14} {
			ft := topology.FatTree(k)
			switches := ft.NumSwitches()
			lo, hi := ft.NumServers()/2, switches*(k-1)
			src := rng.New(1).Split("fig11").Split(fmt.Sprintf("k%d", k))
			fam := capsearch.NewFamily(topology.JellyfishSpread(switches, k, lo, src.SplitN("topo", lo)), src.Split("grow"))
			for _, servers := range []int{lo, lo + (hi-lo)/4, (lo + hi) / 2} {
				pat := traffic.NestedCycle(fam.Assign(servers), src.Split("cycle").SplitN("trial", 0))
				pairs := routing.PairsForPattern(pat)
				graph.CheckEngineAgainstReference(t, fam.At(servers).Graph, oracleTriples(pairs[:min(len(pairs), 100)], 25))
			}
		}
	})
	t.Run("fattree", func(t *testing.T) {
		for _, k := range []int{4, 6, 8} {
			g := topology.FatTree(k).Graph
			graph.CheckEngineAgainstReference(t, g, oracleTriples(randomSwitchPairs(g.N(), 60, r), 10))
		}
	})
	t.Run("heterogeneous", func(t *testing.T) {
		ports, servers := make([]int, 60), make([]int, 60)
		for i := range ports {
			ports[i] = 4 + r.Intn(13)
			servers[i] = 1 + r.Intn(3)
		}
		g := topology.JellyfishHeterogeneous(ports, servers, rng.New(3)).Graph
		graph.CheckEngineAgainstReference(t, g, oracleTriples(randomSwitchPairs(g.N(), 80, r), 10))
	})
	t.Run("disconnected", func(t *testing.T) {
		// Two Jellyfish side by side, a degree-1 one (a matching) and an
		// isolated vertex.
		parts := []*graph.Graph{
			topology.Jellyfish(20, 6, 4, rng.New(5)).Graph,
			topology.Jellyfish(15, 5, 2, rng.New(6)).Graph,
			topology.Jellyfish(10, 3, 1, rng.New(7)).Graph,
		}
		g := graph.New(46)
		off := 0
		for _, p := range parts {
			for _, e := range p.Edges() {
				g.AddEdge(off+e.U, off+e.V)
			}
			off += p.N()
		}
		graph.CheckEngineAgainstReference(t, g, oracleTriples(randomSwitchPairs(g.N(), 80, r), 8))
	})
	t.Run("clique-off-source", func(t *testing.T) {
		// Vertex 0 joins a 16-clique (1..16) and a 3-hop chain to 19, the
		// one way out of the clique: 0 has a single simple path to 19.
		const c = 16
		const dst = c + 3
		g := graph.New(dst + 1)
		for u := 1; u <= c; u++ {
			g.AddEdge(0, u)
			for v := u + 1; v <= c; v++ {
				g.AddEdge(u, v)
			}
		}
		g.AddEdge(0, c+1)
		for v := c + 2; v <= dst; v++ {
			g.AddEdge(v-1, v)
		}
		graph.CheckEngineAgainstReference(t, g, oracleTriples([]routing.Pair{{Src: 0, Dst: dst}, {Src: 1, Dst: dst}, {Src: dst, Dst: 1}}, 1))
	})
}

// The label stage's budget is what bounds it: on a clique hanging off
// the source, where pruning on labels alone explores exponentially many
// dead ends, the budget runs out and Yen answers (the paths themselves
// are checked in TestKSPEngineMatchesReferenceGenerated). It never does
// at k = 8 on random regular graphs of Table 1's size, nor on the
// Jellyfish designs jfbench's interactive workload plans (50–80
// switches, 12 ports, degree 8) under a random permutation.
func TestKSPLabelBudget(t *testing.T) {
	// Vertex 0 joins a 12-clique (1..12) and a 3-hop chain to 15, its one
	// simple path there.
	const c = 12
	const dst = c + 3
	g := graph.New(dst + 1)
	for u := 1; u <= c; u++ {
		g.AddEdge(0, u)
		for v := u + 1; v <= c; v++ {
			g.AddEdge(u, v)
		}
	}
	g.AddEdge(0, c+1)
	g.AddEdge(c+1, c+2)
	g.AddEdge(c+2, dst)
	eng := graph.NewKSPEngine(g)
	if got := eng.Paths(0, dst, 2); len(got) != 1 || graph.LabelBudgetLeft(eng) >= 0 {
		t.Fatalf("clique: %d paths with %d of the budget left, want 1 path from Yen after the budget ran out", len(got), graph.LabelBudgetLeft(eng))
	}

	neverExhausts := func(name string, g *graph.Graph, pairs []routing.Pair) {
		t.Helper()
		eng := graph.NewKSPEngine(g)
		for _, p := range pairs {
			if eng.Paths(p.Src, p.Dst, 8); graph.LabelBudgetLeft(eng) < 0 {
				t.Fatalf("%s %d->%d: label stage ran out of budget", name, p.Src, p.Dst)
			}
		}
	}
	r := rand.New(rand.NewSource(5))
	neverExhausts("rrg245", graph.RandomRegularGraph(245, 11, r), randomSwitchPairs(245, 200, r))
	for _, n := range []int{50, 65, 80} {
		top := topology.Jellyfish(n, 12, 8, rng.New(uint64(n)))
		pat := traffic.RandomPermutation(top.ServerSwitches(), rng.New(uint64(n)).Split("perm"))
		neverExhausts(top.Name, top.Graph, routing.PairsForPattern(pat))
	}
}
