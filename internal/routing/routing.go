// Package routing builds the forwarding state evaluated in §5 of the paper:
// ECMP (equal-cost multi-path over shortest paths, 8- or 64-way) and
// k-shortest-path routing, whose paths graph.KSPEngine reads off BFS
// distance labels with a Yen fallback, plus the per-link distinct-path
// counts behind Fig. 9's "ECMP is not enough" result.
package routing

import (
	"fmt"
	"sort"

	"jellyfish/internal/graph"
	"jellyfish/internal/rng"
	"jellyfish/internal/traffic"
)

// A Pair identifies an ordered (srcSwitch, dstSwitch) route-table entry.
type Pair struct{ Src, Dst int }

// Table maps switch pairs to their usable path sets, in deterministic
// (shortest-first) order.
type Table struct {
	Paths map[Pair][]graph.Path
	// Kind records how the table was built ("ecmp-8", "ksp-8", ...).
	Kind string
}

// PathsFor returns the path set for the given pair (nil if absent).
func (t *Table) PathsFor(src, dst int) []graph.Path {
	return t.Paths[Pair{src, dst}]
}

// dedupPairs drops duplicate pairs, keeping first-appearance order.
func dedupPairs(pairs []Pair) []Pair {
	seen := make(map[Pair]bool, len(pairs))
	out := make([]Pair, 0, len(pairs))
	for _, p := range pairs {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// bfsLevels computes BFS hop counts from s over the snapshot, with
// graph.Unreachable for unreached vertices — the same output as
// Graph.BFS, read off the compact adjacency.
func bfsLevels(c *graph.CSR, s int) []int {
	n := c.N()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = graph.Unreachable
	}
	dist[s] = 0
	queue := make([]int32, 1, n)
	queue[0] = int32(s)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u] + 1
		for _, v := range c.Neighbors(int(u)) {
			if dist[v] == graph.Unreachable {
				dist[v] = du
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// pathCounts computes the number of shortest paths from s to every vertex
// by DP in BFS-distance order.
func pathCounts(c *graph.CSR, s int, dist []int) []float64 {
	n := c.N()
	order := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if dist[v] != graph.Unreachable {
			order = append(order, v)
		}
	}
	sort.Slice(order, func(i, j int) bool { return dist[order[i]] < dist[order[j]] })
	np := make([]float64, n)
	np[s] = 1
	for _, v := range order {
		if v == s {
			continue
		}
		for _, u := range c.Neighbors(v) {
			if dist[u] == dist[v]-1 {
				np[v] += np[u]
			}
		}
	}
	return np
}

// sampleEqualCostPaths draws up to w distinct uniform-random shortest
// paths from s to dst. If the DAG holds ≤ w paths they are all returned
// (enumerated exhaustively — rejection sampling could terminate early and
// silently drop paths the table contract promises); otherwise rejection
// sampling collects w distinct ones.
func sampleEqualCostPaths(c *graph.CSR, s, dst int, dist []int, npaths []float64, w int, src *rng.Source) []graph.Path {
	if dist[dst] == graph.Unreachable {
		return nil
	}
	if s == dst {
		return []graph.Path{{s}}
	}
	total := npaths[dst]
	if total <= float64(w) {
		// npaths saturates only far above any practical w, so in this
		// regime the count is exact and enumeration is cheap: the DAG
		// holds at most w paths.
		return enumerateEqualCostPaths(c, s, dst, dist)
	}
	want := w
	seen := map[string]bool{}
	var out []graph.Path
	attempts := 0
	maxAttempts := 20 * w
	for len(out) < want && attempts < maxAttempts {
		attempts++
		// Walk backwards from dst, choosing each predecessor u with
		// probability npaths[u]/Σ — a uniform random shortest path.
		path := make(graph.Path, dist[dst]+1)
		path[len(path)-1] = dst
		v := dst
		for i := len(path) - 2; i >= 0; i-- {
			var sum float64
			for _, u := range c.Neighbors(v) {
				if dist[u] == dist[v]-1 {
					sum += npaths[u]
				}
			}
			x := src.Float64() * sum
			next := -1
			for _, u := range c.Neighbors(v) {
				if dist[u] == dist[v]-1 {
					x -= npaths[u]
					next = int(u)
					if x <= 0 {
						break
					}
				}
			}
			v = next
			path[i] = v
		}
		key := pathKey(path)
		if !seen[key] {
			seen[key] = true
			out = append(out, path)
		}
	}
	sort.Slice(out, func(a, b int) bool { return lessPath(out[a], out[b]) })
	return out
}

// enumerateEqualCostPaths returns every shortest s→dst path, in lessPath
// order, by walking the shortest-path DAG backwards from dst (predecessors
// of v are the neighbors one BFS level closer to s). Callers bound the
// path count before enumerating.
func enumerateEqualCostPaths(c *graph.CSR, s, dst int, dist []int) []graph.Path {
	var out []graph.Path
	stack := make(graph.Path, dist[dst]+1)
	stack[len(stack)-1] = dst
	var walk func(v, i int)
	walk = func(v, i int) {
		if v == s {
			out = append(out, append(graph.Path(nil), stack...))
			return
		}
		for _, u := range c.Neighbors(v) {
			if dist[u] == dist[v]-1 {
				stack[i-1] = int(u)
				walk(int(u), i-1)
			}
		}
	}
	walk(dst, len(stack)-1)
	sort.Slice(out, func(a, b int) bool { return lessPath(out[a], out[b]) })
	return out
}

func pathKey(p graph.Path) string {
	b := make([]byte, 0, 4*len(p))
	for _, v := range p {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

func lessPath(a, b graph.Path) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// LinkLoad counts, for every directed link, the number of distinct table
// paths that traverse it — the y-axis of Fig. 9. Each cable counts as two
// links, one per direction; links on no path are included with count 0.
func LinkLoad(g *graph.Graph, t *Table) map[[2]int]int {
	counts := make(map[[2]int]int, 2*g.M())
	for _, e := range g.Edges() {
		counts[[2]int{e.U, e.V}] = 0
		counts[[2]int{e.V, e.U}] = 0
	}
	//jellyvet:allow determinism -- additive count reduction; increments commute across iteration order
	for _, paths := range t.Paths {
		for _, p := range paths {
			for i := 0; i+1 < len(p); i++ {
				counts[[2]int{p[i], p[i+1]}]++
			}
		}
	}
	return counts
}

// RankedLinkLoads returns the per-directed-link path counts sorted
// ascending (the rank-plot series of Fig. 9).
func RankedLinkLoads(g *graph.Graph, t *Table) []int {
	counts := LinkLoad(g, t)
	out := make([]int, 0, len(counts))
	for _, c := range counts { //jellyvet:allow determinism -- values collected then sorted before any use
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// PairsForPattern extracts the route-table pairs a traffic pattern needs:
// the distinct (srcSwitch, dstSwitch) pairs of its flows in
// first-appearance order, same-switch flows dropped. The single
// definition of "which pairs a pattern routes".
func PairsForPattern(pat *traffic.Pattern) []Pair {
	seen := map[Pair]bool{}
	var out []Pair
	for _, f := range pat.Flows {
		p := Pair{f.SrcSwitch, f.DstSwitch}
		if p.Src != p.Dst && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

func kindName(base string, n int) string {
	return fmt.Sprintf("%s-%d", base, n)
}
