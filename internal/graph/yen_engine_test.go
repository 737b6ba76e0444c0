package graph

import (
	"math/rand"
	"sort"
	"testing"
)

// kShortestPathsReference is the pre-engine one-shot implementation
// (per-call maps and slices), kept verbatim as the oracle for the
// engine's bit-identity contract: KSPEngine.Paths must return exactly
// these paths in exactly this order.
func kShortestPathsReference(g *Graph, src, dst, k int) []Path {
	if k <= 0 {
		return nil
	}
	first := refMaskedShortestPath(g, src, dst, nil, nil)
	if first == nil {
		return nil
	}
	paths := []Path{first}
	var candidates []Path
	removedEdges := make(map[Edge]bool)
	removedNodes := make(map[int]bool)

	for len(paths) < k {
		prev := paths[len(paths)-1]
		for i := 0; i < len(prev)-1; i++ {
			spurNode := prev[i]
			rootPath := prev[:i+1]

			clear(removedEdges)
			clear(removedNodes)
			for _, p := range paths {
				if len(p) > i && samePrefix(p, rootPath) {
					removedEdges[Canon(p[i], p[i+1])] = true
				}
			}
			for _, p := range candidates {
				if len(p) > i && samePrefix(p, rootPath) {
					removedEdges[Canon(p[i], p[i+1])] = true
				}
			}
			for _, v := range rootPath[:len(rootPath)-1] {
				removedNodes[v] = true
			}

			spurPath := refMaskedShortestPath(g, spurNode, dst, removedNodes, removedEdges)
			if spurPath == nil {
				continue
			}
			total := make(Path, 0, i+len(spurPath))
			total = append(total, rootPath...)
			total = append(total, spurPath[1:]...)
			if !containsPath(paths, total) && !containsPath(candidates, total) {
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(a, b int) bool { return lessPath(candidates[a], candidates[b]) })
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths
}

func refMaskedShortestPath(g *Graph, src, dst int, skipNode map[int]bool, skipEdge map[Edge]bool) Path {
	if skipNode[src] || skipNode[dst] {
		return nil
	}
	if src == dst {
		return Path{src}
	}
	n := g.N()
	dist := make([]int, n)
	parent := make([]int, n)
	for i := range dist {
		dist[i] = Unreachable
		parent[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == dst {
			break
		}
		for _, v := range g.adj[u] {
			if dist[v] != Unreachable || skipNode[v] {
				continue
			}
			if len(skipEdge) > 0 && skipEdge[Canon(u, v)] {
				continue
			}
			dist[v] = dist[u] + 1
			parent[v] = u
			queue = append(queue, v)
		}
	}
	if dist[dst] == Unreachable {
		return nil
	}
	path := make(Path, dist[dst]+1)
	cur := dst
	for i := len(path) - 1; i >= 0; i-- {
		path[i] = cur
		cur = parent[cur]
	}
	return path
}

func randomConnectedGraph(n, extraEdges int, r *rand.Rand) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v, r.Intn(v))
	}
	for i := 0; i < extraEdges; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// checkEngineAgainstReference drives one engine across pairs (each with
// its own k) on g and requires the reference algorithm's paths, byte for
// byte and in order.
func checkEngineAgainstReference(t *testing.T, g *Graph, pairs [][3]int) {
	t.Helper()
	eng := NewKSPEngine(g)
	for _, p := range pairs {
		src, dst, k := p[0], p[1], p[2]
		want := kShortestPathsReference(g, src, dst, k)
		got := eng.Paths(src, dst, k)
		if len(got) != len(want) {
			t.Fatalf("n=%d %d->%d k=%d: %d paths, want %d", g.N(), src, dst, k, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("n=%d %d->%d k=%d: path %d = %v, want %v", g.N(), src, dst, k, i, got[i], want[i])
			}
		}
	}
}

// randomPairs draws count (src, dst, k) triples with k in [1, maxK].
func randomPairs(n, count, maxK int, r *rand.Rand) [][3]int {
	pairs := make([][3]int, count)
	for i := range pairs {
		pairs[i] = [3]int{r.Intn(n), r.Intn(n), 1 + r.Intn(maxK)}
	}
	return pairs
}

func gridGraph(rows, cols int) *Graph {
	g := New(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(r*cols+c, r*cols+c+1)
			}
			if r+1 < rows {
				g.AddEdge(r*cols+c, (r+1)*cols+c)
			}
		}
	}
	return g
}

func completeBipartiteGraph(a, b int) *Graph {
	g := New(a + b)
	for u := 0; u < a; u++ {
		for v := a; v < a+b; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

func hypercubeGraph(dim int) *Graph {
	g := New(1 << dim)
	for u := 0; u < 1<<dim; u++ {
		for b := 0; b < dim; b++ {
			if v := u ^ 1<<b; u < v {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// randomRegularGraph pairs n*d shuffled port stubs (the configuration
// model), dropping self-loops and repeated edges: near-regular of degree
// d, like a jellyfish switch graph.
func randomRegularGraph(n, d int, r *rand.Rand) *Graph {
	stubs := make([]int, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, v)
		}
	}
	r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	g := New(n)
	for i := 0; i+1 < len(stubs); i += 2 {
		if stubs[i] != stubs[i+1] {
			g.AddEdge(stubs[i], stubs[i+1])
		}
	}
	return g
}

// The engine's whole value proposition is scratch reuse without
// observable effect: one engine driven across many pairs, many k values,
// and interleaved sparse/dense graphs must reproduce the reference
// algorithm byte for byte. The generated families reach every exit of
// the bidirectional spur search: a frontier running out (disconnected
// pairs, bridges cut by the root mask), both frontiers running deep
// (rings, grids), equal-length ties settled by the lexicographic rule
// (complete bipartite graphs, hypercubes, grids), and the Table 1 /
// Fig. 11 scale (245 switches of network degree 11).
func TestKSPEngineMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	t.Run("random", func(t *testing.T) {
		for trial := 0; trial < 6; trial++ {
			n := 8 + r.Intn(25)
			g := randomConnectedGraph(n, n+r.Intn(3*n), r)
			checkEngineAgainstReference(t, g, randomPairs(n, 40, 10, r))
		}
	})
	t.Run("disconnected", func(t *testing.T) {
		// Two sparse components (trees plus a few chords, so Yen's root
		// masks often cut the spur node off) and an isolated vertex.
		for trial := 0; trial < 6; trial++ {
			a, b := 6+r.Intn(12), 6+r.Intn(12)
			g := New(a + b + 1)
			for _, part := range []struct{ off, n int }{{0, a}, {a, b}} {
				c := randomConnectedGraph(part.n, r.Intn(part.n/2), r)
				for _, e := range c.Edges() {
					g.AddEdge(part.off+e.U, part.off+e.V)
				}
			}
			checkEngineAgainstReference(t, g, randomPairs(g.N(), 60, 16, r))
		}
	})
	t.Run("ring", func(t *testing.T) {
		for _, n := range []int{3, 4, 5, 8, 13, 32} {
			checkEngineAgainstReference(t, ringGraph(n), randomPairs(n, 30, 16, r))
		}
	})
	t.Run("grid", func(t *testing.T) {
		for _, rc := range [][2]int{{1, 6}, {2, 2}, {3, 5}, {4, 4}, {6, 9}, {10, 10}} {
			g := gridGraph(rc[0], rc[1])
			checkEngineAgainstReference(t, g, randomPairs(g.N(), 60, 16, r))
		}
	})
	t.Run("bipartite", func(t *testing.T) {
		for _, ab := range [][2]int{{1, 4}, {2, 3}, {3, 3}, {5, 7}, {4, 9}} {
			g := completeBipartiteGraph(ab[0], ab[1])
			checkEngineAgainstReference(t, g, randomPairs(g.N(), 60, 16, r))
		}
	})
	t.Run("hypercube", func(t *testing.T) {
		for dim := 1; dim <= 6; dim++ {
			g := hypercubeGraph(dim)
			checkEngineAgainstReference(t, g, randomPairs(g.N(), 60, 16, r))
		}
	})
	t.Run("rrg245", func(t *testing.T) {
		g := randomRegularGraph(245, 11, r)
		checkEngineAgainstReference(t, g, randomPairs(g.N(), 120, 16, r))
	})
}

// One-shot KShortestPaths delegates to the engine; pin the delegation on
// a disconnected pair and the trivial same-node pair.
func TestKSPEngineEdgeCases(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	if got := g.KShortestPaths(0, 3, 4); got != nil {
		t.Fatalf("disconnected pair returned %v", got)
	}
	eng := NewKSPEngine(g)
	if got := eng.Paths(2, 2, 3); len(got) != 1 || !got[0].Equal(Path{2}) {
		t.Fatalf("self pair returned %v", got)
	}
	if got := eng.Paths(0, 1, 0); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
}

// The engine must observe graph mutations made between calls (the
// incremental-family searches rewire links between probes).
func TestKSPEngineSeesMutations(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 3)
	eng := NewKSPEngine(g)
	if got := eng.Paths(0, 3, 2); len(got) != 1 {
		t.Fatalf("before mutation: %v", got)
	}
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	got := eng.Paths(0, 3, 4)
	want := kShortestPathsReference(g, 0, 3, 4)
	if len(got) != len(want) {
		t.Fatalf("after mutation: %v, want %v", got, want)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("after mutation path %d: %v, want %v", i, got[i], want[i])
		}
	}
}
