package graph

import "math/bits"

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
	dist[src] = 0
	queue := append(make([]int, 0, g.N()), src)
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
	return dist
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
// with u,v in subset (all vertices if subset is nil) and u != v; a vertex
// listed k times counts k times at either end. This is used to measure
// switch-to-switch and server-to-server path lengths.
func (g *Graph) PairsStats(subset []int) PathStats {
	var sc PairsScratch
	return g.PairsStatsInto(subset, &sc)
}

// PairsScratch holds the reusable working buffers of PairsStatsInto.
// The zero value is ready to use; buffers grow to the largest graph seen
// and are reused across calls. Not safe for concurrent use.
type PairsScratch struct {
	// One word per vertex, bit i standing for the pass's i-th source:
	// the sources that have reached the vertex, those that reached it at
	// the current level, and those reaching it at the next.
	seen, visit, next []uint64
	weight            []int64 // times the subset lists each vertex
	frontier, reached []int32 // vertices with a nonzero visit / next word
	hist              []int64
}

// PairsStatsInto is PairsStats with caller-owned scratch: repeated calls
// over a warm chain of same-sized graphs allocate nothing after the first.
// The returned PathStats.Hist aliases the scratch and is valid only until
// the next call with the same scratch — copy it to retain.
func (g *Graph) PairsStatsInto(subset []int, sc *PairsScratch) PathStats {
	n := g.N()
	if cap(sc.seen) < n {
		sc.seen, sc.visit, sc.next = make([]uint64, n), make([]uint64, n), make([]uint64, n)
		sc.weight, sc.hist = make([]int64, n), make([]int64, n)
		sc.frontier, sc.reached = make([]int32, n), make([]int32, n)
	}
	// A listed vertex weighs as often as it is listed, both as a source
	// and as a target; a vertex is never paired with itself.
	weight := sc.weight[:n]
	sources := len(subset)
	if subset == nil {
		sources = n
		for v := range weight {
			weight[v] = 1
		}
	} else {
		clear(weight)
		for _, v := range subset {
			weight[v]++
		}
	}
	want := int64(sources) * int64(sources)
	for _, w := range weight {
		want -= w * w
	}
	clear(sc.hist[:n])
	diameter, sum, pairs := g.pairsHist(subset, sources, sc)
	stats := PathStats{Diameter: diameter, Pairs: pairs, Connected: pairs == want, Hist: sc.hist[:0]}
	if pairs > 0 {
		stats.Hist = sc.hist[:diameter+1]
		stats.Mean = float64(sum) / float64(pairs)
	}
	return stats
}

// pairsHist is the multi-source BFS kernel of PairsStatsInto (MS-BFS,
// Then et al., PVLDB 2014): each pass runs 64 sources' searches at once
// with one word per vertex, expanding only the vertices on the current
// frontier, so a pass does no more work than its 64 searches would one
// at a time. Source i is subset[i], or vertex i if subset is nil. At
// each level d it adds weight[v]·popcount(next[v]) to hist[d] for every
// vertex v reached, and it returns the largest d counted with the sum
// and total of the counts. hist must be zero on entry; visit and next
// end every pass, and so every call, with no bit set.
//
//jellyvet:hotpath
func (g *Graph) pairsHist(subset []int, sources int, sc *PairsScratch) (diameter int, sum, pairs int64) {
	n := g.N()
	seen, visit, next := sc.seen[:n], sc.visit[:n], sc.next[:n]
	weight, hist := sc.weight[:n], sc.hist[:n]
	frontier, reached := sc.frontier[:n], sc.reached[:n]
	for base := 0; base < sources; base += 64 {
		clear(seen)
		nf := 0
		for i := 0; i < 64 && base+i < sources; i++ {
			s := base + i
			if subset != nil {
				s = subset[s]
			}
			if visit[s] == 0 {
				frontier[nf] = int32(s)
				nf++
			}
			seen[s] |= 1 << i
			visit[s] |= 1 << i
		}
		for d := 1; nf > 0; d++ {
			nr := 0
			for _, u := range frontier[:nf] {
				x := visit[u]
				visit[u] = 0
				for _, v := range g.adj[u] {
					if nb := x &^ seen[v]; nb != 0 {
						if next[v] == 0 {
							reached[nr] = int32(v)
							nr++
						}
						next[v] |= nb
						seen[v] |= nb
					}
				}
			}
			var count int64
			for _, v := range reached[:nr] {
				count += weight[v] * int64(bits.OnesCount64(next[v]))
				visit[v], next[v] = next[v], 0
			}
			if count > 0 {
				hist[d] += count
				sum += int64(d) * count
				pairs += count
				diameter = max(diameter, d)
			}
			frontier, reached = reached, frontier
			nf = nr
		}
	}
	return diameter, sum, pairs
}

// Diameter returns the maximum eccentricity over all vertices
// (ignoring unreachable pairs).
func (g *Graph) Diameter() int {
	return g.AllPairsStats().Diameter
}
