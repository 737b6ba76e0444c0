package routing

import (
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
// Tables built through a Compiled instance are bit-identical to the
// package-level ECMP/KShortest constructors: the memoized values are pure
// functions of (graph, key), and the ECMP sampling loop — the only
// stream-consuming part — runs the identical code over them. Reuse
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

// KShortest builds the k-shortest-path table for the given pairs,
// computing only the pairs this instance has not seen before (fanned out
// over `workers` goroutines, each with its own flat-scratch KSPEngine)
// and serving the rest from the memo. Bit-identical to the package-level
// KShortest.
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

// ECMP builds an equal-cost multipath table for the given pairs, sampling
// from src exactly like the package-level ECMP — per-source streams
// derived by source id, destinations visited in first-appearance order —
// but over memoized per-source BFS state, so repeated builds on one graph
// pay the sampling cost only. Bit-identical to the package-level ECMP for
// the same (pairs, w, src).
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
