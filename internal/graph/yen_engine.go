package graph

import "slices"

// A KSPEngine computes loopless k-shortest paths with reusable flat
// scratch: epoch-stamped visited/mask arrays, preallocated frontier
// queues, and a compact masked-edge list replace the per-call maps and
// slices of the textbook algorithm. Results are bit-identical to the
// reference Yen that TestKSPEngineMatchesReference keeps; only the
// wall-clock and allocation profile differ. The returned paths are
// freshly allocated and owned by the caller; everything else is engine
// scratch.
//
// Paths follows Lawler's deviation-index rule: a ranked path spurs only
// from the index at which it was generated onward. Every root before
// that index is also its parent's root, spurred when the parent was
// ranked, and the ranked paths are those of textbook Yen, which spurs
// at every index (TestKSPEngineMatchesReference).
//
// An engine is bound to one graph and is NOT safe for concurrent use —
// give each worker goroutine its own (routing.Compiled does exactly
// that). Mutating the graph between calls is allowed: the scratch carries
// no cross-call state beyond its epoch counter, so the next call simply
// observes the new adjacency.
type KSPEngine struct {
	g     *Graph
	csr   *CSR // refreshed at the top of each Paths call
	epoch uint32
	// Search scratch for the two sides of the bidirectional BFS (index
	// fromSrc, fromDst): seen stamps, valid hop distances where
	// seen == epoch, and each side's level-ordered queue.
	seen  [2][]uint32
	dist  [2][]int32
	queue [2][]int32
	// dead stamps src-side nodes the path walk found to lie on no
	// shortest path, valid where stamp == epoch.
	dead []uint32
	// spur holds the path the last search found.
	spur Path
	// Spur masks, valid where stamp == epoch.
	skipNode []uint32
	// Masked neighbors of the current spur node. Every edge Yen masks is
	// p[i]→p[i+1] of a path sharing the spur root — always incident to
	// the spur node — so the mask is a handful of neighbor ids.
	maskedNbrs []int32
	candidates []Path
	// Deviation indices: the spur index at which each ranked path
	// (pathDev) and each candidate (candDev, swap-removed alongside
	// candidates) was generated.
	pathDev []int
	candDev []int
}

// The two sides of the bidirectional BFS.
const (
	fromSrc = 0
	fromDst = 1
)

// NewKSPEngine returns an engine for g. O(N) memory; cheap enough to
// build one per worker, too expensive to build one per pair.
func NewKSPEngine(g *Graph) *KSPEngine {
	return &KSPEngine{g: g}
}

// bump starts a new epoch, invalidating all stamps at once. On the
// (practically unreachable) wraparound the stamp arrays are cleared so
// stale stamps from 4 billion spurs ago cannot alias the new epoch.
func (e *KSPEngine) bump() {
	e.epoch++
	if e.epoch == 0 {
		clear(e.seen[fromSrc])
		clear(e.seen[fromDst])
		clear(e.dead)
		clear(e.skipNode)
		e.epoch = 1
	}
}

func (e *KSPEngine) ensure() {
	n := e.csr.N()
	if len(e.dead) >= n {
		return
	}
	for s := range e.seen {
		e.seen[s] = make([]uint32, n)
		e.dist[s] = make([]int32, n)
		e.queue[s] = make([]int32, n)
	}
	e.dead = make([]uint32, n)
	e.spur = make(Path, n)
	e.skipNode = make([]uint32, n)
	e.epoch = 0
}

// Paths returns up to k loopless shortest src→dst paths in nondecreasing
// hop-count order, using Yen's ranking algorithm [Yen 1971] with a BFS
// inner search on the unweighted graph. Ties break by lexicographic
// vertex order, so results are reproducible. It returns nil if dst is
// unreachable.
func (e *KSPEngine) Paths(src, dst, k int) []Path {
	if k <= 0 {
		return nil
	}
	// Refresh the adjacency snapshot: unmutated graphs return the cached
	// pointer, mutated ones a rebuilt snapshot — which is how "mutating
	// the graph between calls" keeps working.
	e.csr = e.g.CSR()
	e.ensure()
	e.maskedNbrs = e.maskedNbrs[:0]
	e.bump()
	first := e.bfs(src, dst)
	if first == nil {
		return nil
	}
	paths := []Path{slices.Clone(first)}
	candidates := e.candidates[:0]
	e.pathDev = append(e.pathDev[:0], 0)
	e.candDev = e.candDev[:0]

	for len(paths) < k {
		prev := paths[len(paths)-1]
		for i := e.pathDev[len(paths)-1]; i < len(prev)-1; i++ {
			spurNode := prev[i]
			rootPath := prev[:i+1]

			e.bump()
			e.maskedNbrs = e.maskedNbrs[:0]
			// Mask edges that would recreate an already-known path
			// sharing this root (p[i] is the spur node for all of them),
			// then the root's interior nodes.
			for _, p := range paths {
				if len(p) > i && samePrefix(p, rootPath) {
					e.maskNbr(p[i+1])
				}
			}
			for _, p := range candidates {
				if len(p) > i && samePrefix(p, rootPath) {
					e.maskNbr(p[i+1])
				}
			}
			for _, v := range rootPath[:len(rootPath)-1] {
				e.skipNode[v] = e.epoch
			}

			spurPath := e.bfs(spurNode, dst)
			if spurPath == nil {
				continue
			}
			total := make(Path, 0, i+len(spurPath))
			total = append(total, rootPath...)
			total = append(total, spurPath[1:]...)
			if !containsPath(paths, total) && !containsPath(candidates, total) {
				candidates = append(candidates, total)
				e.candDev = append(e.candDev, i)
			}
		}
		if len(candidates) == 0 {
			break
		}
		// Pop the least candidate. lessPath is a strict total order on
		// the duplicate-free candidate set, and candidate order feeds only
		// set-like uses (the edge masks, containsPath), so a min-scan and
		// swap-remove pick exactly what sorting would.
		best := 0
		for j := 1; j < len(candidates); j++ {
			if lessPath(candidates[j], candidates[best]) {
				best = j
			}
		}
		paths = append(paths, candidates[best])
		e.pathDev = append(e.pathDev, e.candDev[best])
		last := len(candidates) - 1
		candidates[best] = candidates[last]
		candidates = candidates[:last]
		e.candDev[best] = e.candDev[last]
		e.candDev = e.candDev[:last]
	}
	// Keep the slice's capacity but actually drop the Path references it
	// accumulated (including slots past len left by the swap-removes),
	// so a long-lived engine doesn't pin a large ranking round's memory.
	clear(candidates[:cap(candidates)])
	e.candidates = candidates[:0]
	return paths
}

//jellyvet:hotpath
func (e *KSPEngine) maskNbr(v int) {
	for _, m := range e.maskedNbrs {
		if m == int32(v) {
			return
		}
	}
	e.maskedNbrs = append(e.maskedNbrs, int32(v)) //jellyvet:allow hotpath -- grows engine-owned mask scratch; bounded by max degree and reused across queries
}

//jellyvet:hotpath
func (e *KSPEngine) nbrMasked(v int) bool {
	for _, m := range e.maskedNbrs {
		if m == int32(v) {
			return true
		}
	}
	return false
}

// bfs finds the lexicographically smallest shortest src→dst path under
// the current epoch's masks — the path FIFO BFS over sorted adjacency
// returns, and so the reference refMaskedShortestPath's rule — or nil if the
// masks cut dst off. The path is a view of engine scratch, valid until
// the next search. On the first path of a pair the epoch is fresh, so no
// mask applies.
//
// The search is a level-synchronous bidirectional BFS: each step grows
// whichever side has the smaller frontier by one full level. Both sides
// honor the spur masks — skipped root nodes, and the masked edges, every
// one of which joins src to a maskedNbrs entry. Before the step in which
// the sides first meet, the src side's levels 0..a and the dst side's
// 0..b are disjoint, so the masked distance D exceeds a+b; a meeting in
// the step's new level puts it at exactly a+b+1, the sum of the two
// sides' depths once the level is finished.
//
// walk then rebuilds the path from the finished levels.
//
//jellyvet:hotpath
func (e *KSPEngine) bfs(src, dst int) Path {
	ep := e.epoch
	if e.skipNode[src] == ep || e.skipNode[dst] == ep {
		return nil
	}
	if src == dst {
		e.spur[0] = src
		return e.spur[:1]
	}
	var lo, hi, depth [2]int
	for s, root := range [2]int{src, dst} {
		e.seen[s][root] = ep
		e.dist[s][root] = 0
		e.queue[s][0] = int32(root)
		lo[s], hi[s] = 0, 1
	}
	for {
		s := fromSrc
		if hi[fromDst]-lo[fromDst] < hi[fromSrc]-lo[fromSrc] {
			s = fromDst
		}
		if lo[s] == hi[s] {
			return nil // this side ran out: dst is unreachable
		}
		next, met := e.expand(s, src, lo[s], hi[s])
		lo[s], hi[s] = hi[s], next
		depth[s]++
		if met {
			return e.walk(src, depth[fromSrc], depth[fromSrc]+depth[fromDst])
		}
	}
}

// expand grows side s by one full level: each node of the frontier
// queue[s][lo:hi] scans its sorted adjacency, stamping every unseen,
// unmasked neighbor one level further out and appending it to the queue.
// It returns the new queue tail and whether any stamped node was already
// seen by the other side.
//
//jellyvet:hotpath
func (e *KSPEngine) expand(s, src, lo, hi int) (int, bool) {
	c := e.csr
	ep := e.epoch
	seen, dist, q, other := e.seen[s], e.dist[s], e.queue[s], e.seen[1-s]
	masks := len(e.maskedNbrs) > 0
	tail := hi
	met := false
	for _, u32 := range q[lo:hi] {
		u := int(u32)
		// The masked edges all touch src: from src they lead to a masked
		// neighbor, and from a masked neighbor back to src.
		atSrc := masks && u == src
		uMasked := masks && e.nbrMasked(u)
		du := dist[u] + 1
		for _, v32 := range c.Nbrs[c.Offsets[u]:c.Offsets[u+1]] {
			v := int(v32)
			if seen[v] == ep || e.skipNode[v] == ep {
				continue
			}
			if (uMasked && v == src) || (atSrc && e.nbrMasked(v)) {
				continue
			}
			seen[v] = ep
			dist[v] = du
			q[tail] = v32
			tail++
			met = met || other[v] == ep
		}
	}
	return tail, met
}

// walk rebuilds the lexicographically smallest length-d path from the
// finished levels of a search whose src side reached depth fd (and the
// dst side d-fd), taking from src the smallest neighbor that still lies
// on a length-d path at each step. A step to position j < fd knows only
// the src-side levels: it takes the smallest level-j node not stamped
// dead. A step to position j >= fd takes the smallest node at dst-side
// distance d-j, which exists for every node from position fd on. A node
// left without a candidate — at level fd-1, or below it once all its
// candidates are dead — is a dead end: the walk stamps it dead and steps
// back to its predecessor.
//
//jellyvet:hotpath
func (e *KSPEngine) walk(src, fd, d int) Path {
	c := e.csr
	ep := e.epoch
	seenS, distS := e.seen[fromSrc], e.dist[fromSrc]
	seenD, distD := e.seen[fromDst], e.dist[fromDst]
	path := e.spur[:d+1]
	path[0] = src
	for i := 0; i < d; {
		u := path[i]
		next := -1
		for _, v32 := range c.Nbrs[c.Offsets[u]:c.Offsets[u+1]] {
			v := int(v32)
			var ok bool
			if i+1 < fd {
				ok = seenS[v] == ep && int(distS[v]) == i+1 && e.dead[v] != ep
			} else {
				// The only masked edges a step can take leave src.
				ok = seenD[v] == ep && int(distD[v]) == d-i-1 && !(i == 0 && e.nbrMasked(v))
			}
			if ok {
				next = v
				break
			}
		}
		if next < 0 {
			e.dead[u] = ep
			i--
			continue
		}
		path[i+1] = next
		i++
	}
	return path
}
