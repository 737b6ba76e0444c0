package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refPairsStats is the per-source reference for PairsStatsInto: one BFS
// per listed source, then every listed target other than the source
// itself. A vertex listed twice weighs twice as a source and twice as a
// target.
func refPairsStats(g *Graph, subset []int) PathStats {
	sources := subset
	if sources == nil {
		for i := 0; i < g.N(); i++ {
			sources = append(sources, i)
		}
	}
	stats := PathStats{Connected: true}
	var sum int64
	for _, src := range sources {
		dist := g.BFS(src)
		for _, v := range sources {
			if v == src {
				continue
			}
			d := dist[v]
			if d == Unreachable {
				stats.Connected = false
				continue
			}
			for d >= len(stats.Hist) {
				stats.Hist = append(stats.Hist, 0)
			}
			stats.Hist[d]++
			sum += int64(d)
			stats.Pairs++
			if d > stats.Diameter {
				stats.Diameter = d
			}
		}
	}
	if stats.Pairs > 0 {
		stats.Mean = float64(sum) / float64(stats.Pairs)
	}
	return stats
}

// pathGraph is the path 0-1-…-(n-1): the longest diameter on n vertices.
func pathGraph(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// gnpGraph joins each pair with probability p; small p leaves isolated
// vertices and several components.
func gnpGraph(n int, p float64, r *rand.Rand) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// twoRings is a disconnected pair of rings on n vertices, the second
// ring offset by the first's size.
func twoRings(n int) *Graph {
	g := New(n)
	a := n / 2
	for _, part := range [][2]int{{0, a}, {a, n}} {
		lo, hi := part[0], part[1]
		if hi-lo < 3 {
			continue
		}
		for i := lo; i < hi; i++ {
			next := i + 1
			if next == hi {
				next = lo
			}
			g.AddEdge(i, next)
		}
	}
	return g
}

// pathStatsSubsets returns the subsets a graph on n vertices is checked
// over: all vertices (nil), none, a partial sorted sample, the same
// sample shuffled, and a list with repeats.
func pathStatsSubsets(n int, r *rand.Rand) map[string][]int {
	out := map[string][]int{"nil": nil, "empty": {}}
	if n == 0 {
		return out
	}
	var partial []int
	for v := 0; v < n; v++ {
		if r.Intn(3) != 0 {
			partial = append(partial, v)
		}
	}
	out["partial"] = partial
	shuffled := append([]int(nil), partial...)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	out["unsorted"] = shuffled
	var repeated []int
	for i := 0; i < n+n/2; i++ {
		repeated = append(repeated, r.Intn(n))
	}
	out["repeated"] = append(repeated, repeated[0], repeated[0])
	return out
}

func checkPairsStats(t *testing.T, name string, g *Graph, subset []int, sc *PairsScratch) {
	t.Helper()
	want := refPairsStats(g, subset)
	got := g.PairsStatsInto(subset, sc)
	if got.Mean != want.Mean || got.Diameter != want.Diameter || got.Pairs != want.Pairs ||
		got.Connected != want.Connected || !slices.Equal(got.Hist, want.Hist) {
		t.Fatalf("%s: PairsStatsInto %+v, per-source BFS %+v", name, got, want)
	}
	if plain := g.PairsStats(subset); plain.Mean != want.Mean || !slices.Equal(plain.Hist, want.Hist) {
		t.Fatalf("%s: PairsStats %+v, per-source BFS %+v", name, plain, want)
	}
}

// PairsStatsInto must agree bit for bit with one BFS per source on every
// field of PathStats, over graphs on both sides of each 64-source batch
// edge, disconnected ones with isolated vertices, long-diameter rings
// and paths, and nil, empty, partial, unsorted and repeated subsets. One
// scratch serves every call, so stale state from a larger or
// differently shaped graph would show.
func TestPairsStatsMatchesPerSourceBFS(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	sizes := []int{0, 1, 2, 63, 64, 65, 127, 128, 129}
	for i := 0; i < 5; i++ {
		sizes = append(sizes, 1+r.Intn(300))
	}
	var sc PairsScratch
	for _, n := range sizes {
		graphs := map[string]*Graph{
			"edgeless": New(n),
			"path":     pathGraph(n),
			"sparse":   gnpGraph(n, 1.2/float64(n+1), r),
			"dense":    gnpGraph(n, 0.15, r),
			"tworings": twoRings(n),
		}
		if n >= 3 {
			graphs["ring"] = ringGraph(n)
		}
		if n >= 5 {
			graphs["regular"] = randomRegularGraph(n, 4, r)
		}
		for _, gname := range sortedKeys(graphs) {
			g := graphs[gname]
			subsets := pathStatsSubsets(n, r)
			for _, sname := range sortedKeys(subsets) {
				checkPairsStats(t, fmt.Sprintf("n=%d %s %s", n, gname, sname), g, subsets[sname], &sc)
			}
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
