package graph

// EdgeConnectivity returns the global edge connectivity of g: the minimum
// number of edges whose removal disconnects it. Graphs with fewer than 2
// vertices, and disconnected graphs, return 0.
//
// It is the minimum, over every sink t ≠ 0, of the 0→t max flow on the
// unit-capacity network, found by shortest augmenting paths over the CSR
// snapshot. One integer residual array serves all n−1 sinks, and a sink's
// search stops once its flow reaches the smallest cut found so far, since
// only a smaller flow can lower the minimum.
//
// The Jellyfish paper leans on the fact that an r-regular random graph is
// almost surely r-connected (§4.3); this function verifies that property
// on concrete instances.
func EdgeConnectivity(g *Graph) int {
	c := g.CSR()
	if c.N() < 2 {
		return 0
	}
	f := newUnitFlow(c)
	best := c.Degree(0)
	for t := 1; t < c.N() && best > 0; t++ {
		best = f.maxFlow(0, t, best)
	}
	return best
}

// unitFlow is the residual network of an undirected graph whose edges
// carry capacity 1 each way. res[i] is the residual capacity of CSR
// half-edge i; pushing a unit along i moves it onto rev[i], the same
// edge's opposite half-edge.
type unitFlow struct {
	c     *CSR
	res   []int8
	rev   []int32
	via   []int32 // half-edge that reached each vertex in the last search; -1 if none
	queue []int32
}

func newUnitFlow(c *CSR) *unitFlow {
	half := make([]int32, len(c.ArcID)) // arc id → half-edge
	for i, a := range c.ArcID {
		half[a] = int32(i)
	}
	rev := make([]int32, len(c.ArcID))
	for i, a := range c.ArcID {
		rev[i] = half[a^1]
	}
	return &unitFlow{
		c:     c,
		res:   make([]int8, len(c.Nbrs)),
		rev:   rev,
		via:   make([]int32, c.N()),
		queue: make([]int32, 0, c.N()),
	}
}

// maxFlow returns the s→t max flow, or limit once the flow reaches it.
// Each call starts from zero flow (s ≠ t).
func (f *unitFlow) maxFlow(s, t, limit int) int {
	for i := range f.res {
		f.res[i] = 1
	}
	flow := 0
	for flow < limit && f.augment(s, t) {
		flow++
	}
	return flow
}

// augment pushes one unit along a shortest s→t path of positive residual
// capacity and reports whether there was one. After a failed search, the
// vertices other than s with via ≥ 0 are exactly those s still reaches:
// with s, the source side of a minimum cut.
func (f *unitFlow) augment(s, t int) bool {
	c := f.c
	for v := range f.via {
		f.via[v] = -1
	}
	q := append(f.queue[:0], int32(s)) // each vertex enters once: never outgrows cap n
	for h := 0; h < len(q); h++ {
		u := q[h]
		for i := c.Offsets[u]; i < c.Offsets[u+1]; i++ {
			v := c.Nbrs[i]
			if f.res[i] == 0 || int(v) == s || f.via[v] >= 0 {
				continue
			}
			f.via[v] = i
			if int(v) == t {
				for int(v) != s {
					e := f.via[v]
					f.res[e]--
					f.res[f.rev[e]]++
					v = c.Nbrs[f.rev[e]]
				}
				return true
			}
			q = append(q, v)
		}
	}
	return false
}
