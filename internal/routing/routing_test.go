package routing

import (
	"testing"

	"jellyfish/internal/graph"
	"jellyfish/internal/rng"
	"jellyfish/internal/topology"
)

func ecmp(g *graph.Graph, pairs []Pair, w int) *Table {
	return ECMP(g, pairs, w, rng.New(99), 4)
}

func ring(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

func TestECMPFindsAllEqualCostPaths(t *testing.T) {
	// Ring of 4: exactly two equal-cost 2-hop paths 0→2.
	g := ring(4)
	tab := ecmp(g, []Pair{{0, 2}}, 8)
	paths := tab.PathsFor(0, 2)
	if len(paths) != 2 {
		t.Fatalf("got %d ECMP paths, want 2: %v", len(paths), paths)
	}
	for _, p := range paths {
		if len(p) != 3 {
			t.Fatalf("non-shortest ECMP path: %v", p)
		}
	}
}

// Regression: with exactly w equal-cost paths the table must hold all w —
// the doc promises exhaustive dedup in that regime, but rejection sampling
// under a bounded attempt budget could come up short. The θ-graph below
// has exactly 8 two-hop 0→9 paths (one per middle vertex); enumeration
// must return every one of them for w = 8, every time.
func TestECMPExactlyWPathsAllReturned(t *testing.T) {
	g := graph.New(10)
	for mid := 1; mid <= 8; mid++ {
		g.AddEdge(0, mid)
		g.AddEdge(mid, 9)
	}
	for seed := uint64(1); seed <= 20; seed++ {
		tab := ECMP(g, []Pair{{0, 9}}, 8, rng.New(seed), 1)
		paths := tab.PathsFor(0, 9)
		if len(paths) != 8 {
			t.Fatalf("seed %d: got %d of the 8 equal-cost paths: %v", seed, len(paths), paths)
		}
		seen := map[int]bool{}
		for _, p := range paths {
			if len(p) != 3 || p[0] != 0 || p[2] != 9 {
				t.Fatalf("seed %d: unexpected path %v", seed, p)
			}
			seen[p[1]] = true
		}
		if len(seen) != 8 {
			t.Fatalf("seed %d: paths not distinct: %v", seed, paths)
		}
	}
}

func TestECMPWidthCap(t *testing.T) {
	// K5 minus direct edge: many 2-hop paths 0→1; cap at 2.
	g := graph.New(5)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			g.AddEdge(u, v)
		}
	}
	g.RemoveEdge(0, 1)
	tab := ecmp(g, []Pair{{0, 1}}, 2)
	if got := len(tab.PathsFor(0, 1)); got != 2 {
		t.Fatalf("got %d paths with w=2, want 2", got)
	}
}

func TestECMPOnlyShortest(t *testing.T) {
	// Diamond with a longer detour: ECMP must exclude the detour.
	g := graph.New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 2)
	tab := ecmp(g, []Pair{{0, 2}}, 8)
	paths := tab.PathsFor(0, 2)
	if len(paths) != 1 || len(paths[0]) != 3 {
		t.Fatalf("ECMP paths = %v, want single 2-hop", paths)
	}
}

func TestKShortestIncludesLonger(t *testing.T) {
	g := graph.New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 2)
	tab := KShortest(g, []Pair{{0, 2}}, 8, 4)
	paths := tab.PathsFor(0, 2)
	if len(paths) != 2 {
		t.Fatalf("kSP paths = %v, want 2", paths)
	}
	if len(paths[0]) != 3 || len(paths[1]) != 4 {
		t.Fatalf("kSP sizes = %d,%d nodes, want 3,4", len(paths[0]), len(paths[1]))
	}
}

func TestTableKinds(t *testing.T) {
	g := ring(4)
	if k := ecmp(g, nil, 64).Kind; k != "ecmp-64" {
		t.Fatalf("kind = %q", k)
	}
	if k := KShortest(g, nil, 8, 4).Kind; k != "ksp-8" {
		t.Fatalf("kind = %q", k)
	}
}

func TestUnreachablePair(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	if p := ecmp(g, []Pair{{0, 2}}, 8).PathsFor(0, 2); p != nil {
		t.Fatalf("ECMP found paths to unreachable: %v", p)
	}
	if p := KShortest(g, []Pair{{0, 2}}, 8, 4).PathsFor(0, 2); p != nil {
		t.Fatalf("kSP found paths to unreachable: %v", p)
	}
}

func TestLinkLoadCountsDirected(t *testing.T) {
	// Path 0-1-2, route 0→2 and 2→0: each direction counted separately.
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	tab := KShortest(g, []Pair{{0, 2}, {2, 0}}, 4, 4)
	load := LinkLoad(g, tab)
	if load[[2]int{0, 1}] != 1 || load[[2]int{1, 0}] != 1 {
		t.Fatalf("directed loads = %v", load)
	}
	if len(load) != 4 {
		t.Fatalf("expected 4 directed links, got %d", len(load))
	}
}

func TestLinkLoadIncludesUnusedLinks(t *testing.T) {
	g := ring(6)
	tab := KShortest(g, []Pair{{0, 1}}, 1, 4)
	load := LinkLoad(g, tab)
	if len(load) != 12 {
		t.Fatalf("got %d directed links, want 12", len(load))
	}
	zero := 0
	for _, c := range load {
		if c == 0 {
			zero++
		}
	}
	if zero != 11 {
		t.Fatalf("zero-load links = %d, want 11", zero)
	}
}

func TestRankedLinkLoadsSorted(t *testing.T) {
	g := ring(6)
	tab := KShortest(g, []Pair{{0, 3}, {1, 4}}, 4, 4)
	ranks := RankedLinkLoads(g, tab)
	for i := 1; i < len(ranks); i++ {
		if ranks[i] < ranks[i-1] {
			t.Fatal("ranks not ascending")
		}
	}
}

func TestPairsForCommodities(t *testing.T) {
	pairs := PairsForCommodities([][2]int{{0, 1}, {0, 1}, {1, 1}, {2, 0}})
	if len(pairs) != 2 {
		t.Fatalf("pairs = %v, want 2 entries", pairs)
	}
	if pairs[0] != (Pair{0, 1}) || pairs[1] != (Pair{2, 0}) {
		t.Fatalf("pairs = %v", pairs)
	}
}

// Fig. 9's core claim at small scale: 8-shortest-path routing spreads load
// over strictly more links than 8-way ECMP on a Jellyfish topology.
func TestKSPUsesMoreLinksThanECMP(t *testing.T) {
	top := topology.Jellyfish(40, 10, 6, rng.New(2))
	var pairs []Pair
	for s := 0; s < 40; s++ {
		pairs = append(pairs, Pair{s, (s + 7) % 40})
	}
	ecmp := ecmp(top.Graph, pairs, 8)
	ksp := KShortest(top.Graph, pairs, 8, 4)
	usedECMP, usedKSP := 0, 0
	for _, c := range LinkLoad(top.Graph, ecmp) {
		if c > 0 {
			usedECMP++
		}
	}
	for _, c := range LinkLoad(top.Graph, ksp) {
		if c > 0 {
			usedKSP++
		}
	}
	if usedKSP <= usedECMP {
		t.Fatalf("kSP uses %d links, ECMP %d — expected kSP > ECMP", usedKSP, usedECMP)
	}
}

// Route tables must be identical for every worker count: kSP is pure
// fan-out, and ECMP samples from per-source streams derived by source id
// rather than a shared sequentially-consumed stream.
func TestTablesIdenticalAcrossWorkerCounts(t *testing.T) {
	top := topology.Jellyfish(40, 10, 6, rng.New(3))
	var pairs []Pair
	for s := 0; s < 40; s++ {
		pairs = append(pairs, Pair{s, (s + 11) % 40}, Pair{s, (s + 23) % 40})
	}
	samePaths := func(a, b *Table) bool {
		if len(a.Paths) != len(b.Paths) {
			return false
		}
		for p, pa := range a.Paths {
			pb, ok := b.Paths[p]
			if !ok || len(pa) != len(pb) {
				return false
			}
			for i := range pa {
				if pathKey(pa[i]) != pathKey(pb[i]) {
					return false
				}
			}
		}
		return true
	}
	kspSerial := KShortest(top.Graph, pairs, 8, 1)
	ecmpSerial := ECMP(top.Graph, pairs, 8, rng.New(99), 1)
	for _, w := range []int{2, 8, 0} {
		if !samePaths(kspSerial, KShortest(top.Graph, pairs, 8, w)) {
			t.Fatalf("kSP table differs at workers=%d", w)
		}
		if !samePaths(ecmpSerial, ECMP(top.Graph, pairs, 8, rng.New(99), w)) {
			t.Fatalf("ECMP table differs at workers=%d", w)
		}
	}
}

func TestDedupPairs(t *testing.T) {
	got := dedupPairs([]Pair{{0, 1}, {2, 3}, {0, 1}, {2, 3}, {4, 5}})
	want := []Pair{{0, 1}, {2, 3}, {4, 5}}
	if len(got) != len(want) {
		t.Fatalf("dedupPairs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dedupPairs[%d] = %v, want %v (first-appearance order)", i, got[i], want[i])
		}
	}
}
