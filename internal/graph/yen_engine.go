package graph

import (
	"math"
	"slices"
)

// A KSPEngine computes loopless k-shortest paths with reusable flat
// scratch. Paths has two stages. The first reads the paths off BFS
// distance labels: with dT[v] the hop distance from v to dst, a
// depth-first search enumerates the simple src→dst paths of exactly L
// hops for L = dT[src], dT[src]+1, …, visiting neighbors in ascending
// order and entering v only if v is off the path and dT[v] ≤ the hops
// left after v. Every pruned node is one no completion can use, so each
// level yields all its paths in lexicographic order, and the first k
// paths found are the first k loopless paths in (length, lexicographic)
// order — which is exactly what Yen's algorithm with lexicographic
// tie-breaks ranks (TestKShortestMatchesBruteForce). The labels of the
// last destination are kept, keyed by (dst, CSR snapshot), so pairs
// that share a destination pay one BFS.
//
// Pruning on labels alone is exponential on some graphs (a clique
// hanging off src, with one simple path out of it). So the first stage
// counts node expansions against a budget of a few BFS worth; when that
// runs out, it discards its partial output and Paths runs Yen's ranking
// algorithm [Yen 1971] instead. Yen's scratch is flat too:
// epoch-stamped visited/mask arrays, preallocated frontier queues, and
// a compact masked-edge list replace the per-call maps and slices of the
// textbook algorithm. Spurs follow Lawler's deviation-index rule: a
// ranked path spurs only from the index at which it was generated
// onward. Every root before that index is also its parent's root,
// spurred when the parent was ranked, and the ranked paths are those of
// textbook Yen, which spurs at every index.
//
// Both stages return exactly the paths of the reference Yen that
// TestKSPEngineMatchesReference keeps; only the wall-clock and
// allocation profile differ. The returned paths are owned by the
// caller; everything else is engine scratch.
//
// An engine is bound to one graph and is NOT safe for concurrent use —
// give each worker goroutine its own (routing.Compiled does exactly
// that). Mutating the graph between calls is allowed: the next call
// takes a fresh CSR snapshot, which invalidates the kept labels, and the
// rest of the scratch carries no cross-call state beyond Yen's epoch
// counter.
type KSPEngine struct {
	g     *Graph
	csr   *CSR // refreshed at the top of each Paths call
	epoch uint32
	// label[v] is v's hop distance to labelDst in labelCSR, or
	// math.MaxInt32 if v cannot reach it.
	label    []int32
	labelDst int
	labelCSR *CSR
	// The label stage's depth-first search: the path so far, each
	// depth's next adjacency index, which nodes are on the path, and the
	// expansions left in the pair's budget.
	trail  Path
	cursor []int32
	onPath []bool
	budget int
	// flat holds the paths the label stage has found, back to back;
	// levelPaths[i] counts those of dT[src]+i hops.
	flat       []int
	levelPaths []int
	// Search scratch for the two sides of Yen's bidirectional BFS (index
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

// labelBudgetBFS is the label stage's expansion budget per pair, in BFS
// worth: a pair may enter at most labelBudgetBFS × N nodes before Paths
// falls back to Yen.
const labelBudgetBFS = 4

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
	e.label = make([]int32, n)
	e.labelCSR = nil
	e.trail = make(Path, n)
	e.cursor = make([]int32, n)
	e.onPath = make([]bool, n)
}

// Paths returns up to k loopless shortest src→dst paths in nondecreasing
// hop-count order, ties broken by lexicographic vertex order, so results
// are reproducible. It returns nil if dst is unreachable. Paths the
// label stage finds share one backing array, each capped at its own
// length, so an append to one copies it rather than overwriting the next.
func (e *KSPEngine) Paths(src, dst, k int) []Path {
	if k <= 0 {
		return nil
	}
	// Refresh the adjacency snapshot: unmutated graphs return the cached
	// pointer, mutated ones a rebuilt snapshot — which is how "mutating
	// the graph between calls" keeps working.
	e.csr = e.g.CSR()
	e.ensure()
	if paths, ok := e.labelPaths(src, dst, k); ok {
		return paths
	}
	return e.yen(src, dst, k)
}

// labelPaths is Paths' first stage. It reports false, with no paths,
// when the pair's expansion budget runs out.
func (e *KSPEngine) labelPaths(src, dst, k int) ([]Path, bool) {
	if src == dst {
		return []Path{{src}}, true
	}
	e.labelFrom(dst)
	d := int(e.label[src])
	if d == math.MaxInt32 {
		return nil, true
	}
	n := e.csr.N()
	e.budget = labelBudgetBFS * n
	e.levelPaths = e.levelPaths[:0]
	found, used := 0, 0
	// A simple path has at most n-1 hops.
	for hops := d; hops < n && found < k; hops++ {
		// Every path a level emits costs an expansion, so the budget
		// also bounds the room a level needs.
		room := min(k-found, e.budget) * (hops + 1)
		e.flat = slices.Grow(e.flat[:used], room)
		got, ok := e.enumerate(src, dst, hops, k-found, e.flat[used:used+room])
		if !ok {
			return nil, false
		}
		e.levelPaths = append(e.levelPaths, got)
		found += got
		used += got * (hops + 1)
	}
	buf := make([]int, used)
	copy(buf, e.flat[:used])
	paths := make([]Path, 0, found)
	for i, got := range e.levelPaths {
		size := d + i + 1
		for ; got > 0; got-- {
			paths = append(paths, buf[:size:size])
			buf = buf[size:]
		}
	}
	return paths, true
}

// labelFrom sets label to the hop distances to dst in the current
// snapshot, unless it already holds them. Its BFS queue is Yen's
// dst-side queue, which holds nothing between searches.
//
//jellyvet:hotpath
func (e *KSPEngine) labelFrom(dst int) {
	c := e.csr
	if e.labelCSR == c && e.labelDst == dst {
		return
	}
	label, q := e.label, e.queue[fromDst]
	for i := range label {
		label[i] = math.MaxInt32
	}
	label[dst] = 0
	q[0] = int32(dst)
	for head, tail := 0, 1; head < tail; head++ {
		u := q[head]
		du := label[u] + 1
		for _, v := range c.Nbrs[c.Offsets[u]:c.Offsets[u+1]] {
			if label[v] == math.MaxInt32 {
				label[v] = du
				q[tail] = v
				tail++
			}
		}
	}
	e.labelCSR, e.labelDst = c, dst
}

// enumerate writes the simple src→dst paths of exactly hops hops (at
// least 1) into out in lexicographic order, back to back, stopping once
// it has want of them. It returns how many it wrote, and false if the
// expansion budget ran out first. out must have room for min(want,
// budget) paths.
//
//jellyvet:hotpath
func (e *KSPEngine) enumerate(src, dst, hops, want int, out []int) (int, bool) {
	c := e.csr
	label, trail, cursor, onPath := e.label, e.trail, e.cursor, e.onPath
	trail[0], cursor[0], onPath[src] = src, c.Offsets[src], true
	found, pos, depth := 0, 0, 0
	for depth >= 0 && found < want {
		u := trail[depth]
		i := cursor[depth]
		if i == c.Offsets[u+1] {
			onPath[u] = false
			depth--
			continue
		}
		cursor[depth] = i + 1
		v := int(c.Nbrs[i])
		left := hops - depth - 1 // hops after v
		if onPath[v] || int(label[v]) > left || (v == dst && left > 0) {
			continue
		}
		if e.budget--; e.budget < 0 {
			break
		}
		if left > 1 {
			depth++
			trail[depth], cursor[depth], onPath[v] = v, c.Offsets[v], true
			continue
		}
		// v is dst, or (left == 1) a neighbor of it: a path ends here.
		pos += copy(out[pos:], trail[:depth+1])
		if left == 1 {
			out[pos] = v
			pos++
		}
		out[pos] = dst
		pos++
		found++
	}
	for _, w := range trail[:depth+1] {
		onPath[w] = false
	}
	return found, e.budget >= 0
}

// yen is Paths' fallback: Yen's ranking algorithm with a BFS inner
// search on the unweighted graph.
func (e *KSPEngine) yen(src, dst, k int) []Path {
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
