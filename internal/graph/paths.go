package graph

// Unreachable is the distance reported by BFS for vertices not reachable
// from the source.
const Unreachable = -1

// BFS computes unweighted shortest-path distances from src to every vertex.
// Unreachable vertices get distance Unreachable.
func (g *Graph) BFS(src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = Unreachable
	}
	g.bfsInto(src, dist, make([]int, 0, g.N()))
	return dist
}

// bfsInto runs BFS reusing the provided dist (must be pre-filled with
// Unreachable) and queue buffers.
func (g *Graph) bfsInto(src int, dist []int, queue []int) {
	dist[src] = 0
	queue = append(queue[:0], src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		du := dist[u]
		for _, v := range g.adj[u] {
			if dist[v] == Unreachable {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
}

// PathStats summarizes the all-pairs shortest path structure of a graph.
type PathStats struct {
	Mean      float64 // mean distance over ordered reachable pairs (u != v)
	Diameter  int     // maximum finite distance; 0 if no pairs
	Hist      []int64 // Hist[d] = number of ordered pairs at distance d (d >= 1)
	Pairs     int64   // number of ordered reachable pairs
	Connected bool    // whether all ordered pairs were reachable
}

// CDF returns the cumulative fraction of ordered pairs within each distance
// 1..Diameter. CDF()[d] is the fraction of pairs with distance <= d.
func (s PathStats) CDF() []float64 {
	cdf := make([]float64, len(s.Hist))
	var cum int64
	for d := 1; d < len(s.Hist); d++ {
		cum += s.Hist[d]
		if s.Pairs > 0 {
			cdf[d] = float64(cum) / float64(s.Pairs)
		}
	}
	return cdf
}

// AllPairsStats runs BFS from every vertex and aggregates distance
// statistics over all ordered vertex pairs.
func (g *Graph) AllPairsStats() PathStats {
	return g.PairsStats(nil)
}

// PairsStats aggregates shortest-path statistics over ordered pairs (u,v)
// with u,v in subset (all vertices if subset is nil) and u != v. This is
// used to measure switch-to-switch and server-to-server path lengths.
func (g *Graph) PairsStats(subset []int) PathStats {
	var sc PairsScratch
	return g.PairsStatsInto(subset, &sc)
}

// PairsScratch holds the reusable working buffers of PairsStatsInto.
// The zero value is ready to use; buffers grow to the largest graph seen
// and are reused across calls. Not safe for concurrent use.
type PairsScratch struct {
	dist    []int
	queue   []int
	sources []int
	hist    []int64
}

// PairsStatsInto is PairsStats with caller-owned scratch: repeated calls
// over a warm chain of same-sized graphs allocate nothing after the first.
// The returned PathStats.Hist aliases the scratch and is valid only until
// the next call with the same scratch — copy it to retain.
func (g *Graph) PairsStatsInto(subset []int, sc *PairsScratch) PathStats {
	n := g.N()
	sources := subset
	if sources == nil {
		sc.sources = sc.sources[:0]
		for i := 0; i < n; i++ {
			sc.sources = append(sc.sources, i)
		}
		sources = sc.sources
	}
	stats := PathStats{Connected: true, Hist: sc.hist[:0]}
	var sum int64
	if cap(sc.dist) < n {
		sc.dist = make([]int, n)
		sc.queue = make([]int, 0, n)
	}
	dist, queue := sc.dist[:n], sc.queue[:0]
	for _, src := range sources {
		for i := range dist {
			dist[i] = Unreachable
		}
		g.bfsInto(src, dist, queue)
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
	sc.hist = stats.Hist // keep any growth for the next call
	return stats
}

// Diameter returns the maximum eccentricity over all vertices
// (ignoring unreachable pairs).
func (g *Graph) Diameter() int {
	diam := 0
	n := g.N()
	dist := make([]int, n)
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		for i := range dist {
			dist[i] = Unreachable
		}
		g.bfsInto(s, dist, queue)
		for _, d := range dist {
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}
