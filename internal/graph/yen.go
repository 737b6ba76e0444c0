package graph

// A Path is a loopless vertex sequence from Path[0] to Path[len-1].
type Path []int

// Len returns the hop count (number of edges) of the path.
func (p Path) Len() int { return len(p) - 1 }

// Equal reports whether two paths visit the same vertex sequence.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// KShortestPaths returns up to k loopless shortest paths from src to dst in
// nondecreasing hop-count order, using Yen's ranking algorithm [Yen 1971]
// with a BFS inner subroutine on the unweighted graph. Ties are broken
// deterministically by lexicographic vertex order so results are
// reproducible. It returns nil if dst is unreachable.
//
// This one-shot form builds fresh scratch per call; callers computing
// many pairs on one graph should hold a KSPEngine (or go through
// routing.Compiled) to reuse it.
func (g *Graph) KShortestPaths(src, dst, k int) []Path {
	return NewKSPEngine(g).Paths(src, dst, k)
}

func samePrefix(p Path, root Path) bool {
	if len(p) < len(root) {
		return false
	}
	for i := range root {
		if p[i] != root[i] {
			return false
		}
	}
	return true
}

func containsPath(ps []Path, q Path) bool {
	for _, p := range ps {
		if p.Equal(q) {
			return true
		}
	}
	return false
}

func lessPath(a, b Path) bool {
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
