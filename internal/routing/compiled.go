package routing

import (
	"fmt"
	"sort"
	"sync"

	"jellyfish/internal/graph"
	"jellyfish/internal/parallel"
	"jellyfish/internal/rng"
)

// A Compiled instance is the reusable routing state of one switch graph:
// it memoizes the pure, expensive pieces of table construction — Yen
// k-shortest path sets per (src, dst, k) and the per-source BFS
// distance/path-count state behind ECMP sampling — so repeated table
// builds over the same topology (Table 1's three protocols × trials, a
// capacity search's trials within one probe, the planning service's
// repeated transport evaluations) stop recomputing them.
//
// A table is the same whichever instance builds it: the memoized values
// are pure functions of (graph, key), and the ECMP sampling loop — the
// only stream-consuming part — runs the identical code over them. Reuse
// changes wall-clock, never a path set (compiled_test.go pins this).
//
// A Compiled instance is safe for concurrent use; memoized path slices
// are shared across the tables it produces and must be treated as
// read-only, which every consumer of a Table already does. It must be
// discarded if the underlying graph mutates (the incremental searches
// build one per probe).
type Compiled struct {
	g   *graph.Graph
	csr *graph.CSR // adjacency snapshot taken at NewCompiled

	mu   sync.Mutex
	ksp  map[kspKey][]graph.Path
	ecmp map[int]*ecmpSource
}

type kspKey struct {
	src, dst, k int32
}

// ecmpSource is the sampling-independent per-source state of ECMP table
// construction: BFS levels and shortest-path counts.
type ecmpSource struct {
	dist    []int
	npaths  []float64
	unblock chan struct{} // closed when dist/npaths are ready
}

// NewCompiled returns an empty compiled instance for g.
func NewCompiled(g *graph.Graph) *Compiled {
	return &Compiled{g: g, csr: g.CSR(), ksp: map[kspKey][]graph.Path{}, ecmp: map[int]*ecmpSource{}}
}

// Table builds the route table of the named scheme for the given pairs:
// "ecmp8" and "ecmp64" are 8- and 64-way ECMP sampled from src, "ksp8" is
// 8-shortest-path routing, which consumes no randomness. The names are
// the planning service's wire values and the experiments' stream labels.
// Any other name panics. This is the one place a scheme name becomes a
// path set.
func (c *Compiled) Table(scheme string, pairs []Pair, src *rng.Source, workers int) *Table {
	switch scheme {
	case "ecmp8":
		return c.ECMP(pairs, 8, src, workers)
	case "ecmp64":
		return c.ECMP(pairs, 64, src, workers)
	case "ksp8":
		return c.KShortest(pairs, 8, workers)
	}
	panic(fmt.Sprintf("routing: unknown scheme %q (want ecmp8, ecmp64 or ksp8)", scheme))
}

// KShortest builds the k-shortest-path table for the given pairs using
// Yen's algorithm on the switch graph, computing only the pairs this
// instance has not seen before (fanned out over `workers` goroutines,
// 0 = all cores, each with its own flat-scratch KSPEngine) and serving
// the rest from the memo. The table is identical for every worker count.
func (c *Compiled) KShortest(pairs []Pair, k, workers int) *Table {
	t := &Table{Paths: make(map[Pair][]graph.Path, len(pairs)), Kind: kindName("ksp", k)}
	uniq := dedupPairs(pairs)

	c.mu.Lock()
	missing := make([]Pair, 0, len(uniq))
	for _, p := range uniq {
		if _, ok := c.ksp[kspKey{int32(p.Src), int32(p.Dst), int32(k)}]; !ok {
			missing = append(missing, p)
		}
	}
	c.mu.Unlock()

	if len(missing) > 0 {
		engines := make([]*graph.KSPEngine, parallel.Workers(workers))
		computed := parallel.MapWorker(workers, len(missing), func(worker, i int) []graph.Path {
			if engines[worker] == nil {
				engines[worker] = graph.NewKSPEngine(c.g)
			}
			return engines[worker].Paths(missing[i].Src, missing[i].Dst, k)
		})
		c.mu.Lock()
		for i, p := range missing {
			c.ksp[kspKey{int32(p.Src), int32(p.Dst), int32(k)}] = computed[i]
		}
		c.mu.Unlock()
	}

	c.mu.Lock()
	for _, p := range uniq {
		t.Paths[p] = c.ksp[kspKey{int32(p.Src), int32(p.Dst), int32(k)}]
	}
	c.mu.Unlock()
	return t
}

// ECMP builds an equal-cost multipath table: for each pair, up to w
// distinct shortest paths sampled uniformly from the shortest-path DAG —
// modeling hash-based ECMP, which spreads flows over ALL equal-cost
// next-hops rather than a lexicographically-first subset.
//
// Pairs are grouped by source and the groups fan out over `workers`
// goroutines. Each source samples from its own stream, derived from src by
// source id, visiting its destinations in first-appearance order — never
// from a shared stream consumed in completion order — so the table is
// identical for every worker count. The per-source BFS state is memoized,
// so repeated builds on one graph pay the sampling cost only.
func (c *Compiled) ECMP(pairs []Pair, w int, src *rng.Source, workers int) *Table {
	t := &Table{Paths: make(map[Pair][]graph.Path, len(pairs)), Kind: kindName("ecmp", w)}
	uniq := dedupPairs(pairs)
	bySrc := map[int][]int{}
	for _, p := range uniq {
		bySrc[p.Src] = append(bySrc[p.Src], p.Dst)
	}
	srcs := make([]int, 0, len(bySrc))
	for s := range bySrc { //jellyvet:allow determinism -- keys collected then sorted before any use
		srcs = append(srcs, s)
	}
	sort.Ints(srcs)
	groups := parallel.Map(workers, len(srcs), func(i int) [][]graph.Path {
		s := srcs[i]
		ssrc := src.SplitN("ecmp-src", s)
		es := c.source(s)
		out := make([][]graph.Path, len(bySrc[s]))
		for j, dst := range bySrc[s] {
			out[j] = sampleEqualCostPaths(c.csr, s, dst, es.dist, es.npaths, w, ssrc)
		}
		return out
	})
	for i, s := range srcs {
		for j, dst := range bySrc[s] {
			t.Paths[Pair{s, dst}] = groups[i][j]
		}
	}
	return t
}

// source returns the memoized BFS state for s, computing it on first use.
// Concurrent first users coordinate through the entry's ready channel so
// the BFS runs once and nobody holds the instance lock while it does.
func (c *Compiled) source(s int) *ecmpSource {
	c.mu.Lock()
	es, ok := c.ecmp[s]
	if !ok {
		es = &ecmpSource{unblock: make(chan struct{})}
		c.ecmp[s] = es
		c.mu.Unlock()
		es.dist = bfsLevels(c.csr, s)
		es.npaths = pathCounts(c.csr, s, es.dist)
		close(es.unblock)
		return es
	}
	c.mu.Unlock()
	<-es.unblock
	return es
}
