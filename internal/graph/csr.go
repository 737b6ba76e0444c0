package graph

// A CSR is an immutable compressed-sparse-row snapshot of a Graph's
// adjacency: 32-bit node ids in three flat arrays instead of per-node
// slice headers. It is the storage format of the megascale planning tier
// — at 100k switches the per-node slices of Graph cost 24 bytes of header
// plus a separate allocation each, while the CSR form is two int32 words
// per half-edge and loads with one index computation per neighbor scan.
//
// The neighbor order within each node is the Graph's sorted order, so
// every algorithm that iterates adjacency (BFS tie-breaks, path-count
// sums, ECMP sampling walks) produces bit-identical results over either
// representation. A CSR is a snapshot: mutating the source Graph after
// Graph.CSR() does not change it, and the next Graph.CSR() call returns a
// fresh snapshot. All fields are shared and read-only.
type CSR struct {
	n int
	m int
	// Offsets[u]:Offsets[u+1] bounds u's half-edges in Nbrs and ArcID.
	Offsets []int32 // len n+1
	// Nbrs holds each node's neighbors, sorted ascending within the node.
	Nbrs []int32 // len 2m
	// ArcID[i] is the directed-arc id of half-edge i under the solver
	// convention: arc 2e is U→V and arc 2e+1 is V→U of Edges()[e].
	ArcID []int32 // len 2m
	edges []Edge  // lexicographic edge list, built once with the snapshot
}

// N returns the number of vertices.
func (c *CSR) N() int { return c.n }

// M returns the number of edges.
func (c *CSR) M() int { return c.m }

// Degree returns the degree of vertex u.
func (c *CSR) Degree(u int) int { return int(c.Offsets[u+1] - c.Offsets[u]) }

// Neighbors returns u's sorted neighbor ids. The slice aliases the
// snapshot and must not be modified.
func (c *CSR) Neighbors(u int) []int32 { return c.Nbrs[c.Offsets[u]:c.Offsets[u+1]] }

// Edges returns all edges with U < V in lexicographic order — the same
// list, in the same order, as Graph.Edges() at snapshot time. The slice
// is shared by every caller of the snapshot and must not be modified.
func (c *CSR) Edges() []Edge { return c.edges }

// csrSnap pairs a built snapshot with the graph version it reflects.
type csrSnap struct {
	version uint64
	csr     *CSR
}

// CSR returns the compact snapshot of the graph's current adjacency,
// building it on first use and after any mutation (AddVertex, AddEdge,
// RemoveEdge bump an internal version). Repeated calls on an unmutated
// graph return the identical pointer, which is what lets consumers skip
// same-topology rebuild checks entirely.
//
// Safe for concurrent callers as long as nothing mutates the graph
// concurrently — the same contract every read path of Graph already has.
func (g *Graph) CSR() *CSR {
	if snap := g.csr.Load(); snap != nil && snap.version == g.version {
		return snap.csr
	}
	c := buildCSR(g)
	g.csr.Store(&csrSnap{version: g.version, csr: c})
	return c
}

func buildCSR(g *Graph) *CSR {
	n, m := g.N(), g.m
	c := &CSR{
		n:       n,
		m:       m,
		Offsets: make([]int32, n+1),
		Nbrs:    make([]int32, 2*m),
		ArcID:   make([]int32, 2*m),
		edges:   make([]Edge, 0, m),
	}
	pos := int32(0)
	for u := 0; u < n; u++ {
		c.Offsets[u] = pos
		for _, v := range g.adj[u] {
			c.Nbrs[pos] = int32(v)
			pos++
		}
	}
	c.Offsets[n] = pos
	// Arc ids: sweeping u ascending and v over u's sorted list visits the
	// u < v half-edges in exactly Edges() order, assigning edge indices.
	// The reverse half-edge (v,u) sits in the < v prefix of v's list, and
	// those arrive in increasing u order, so a per-node cursor locates it
	// without any search.
	rev := make([]int32, n)
	for u := 0; u < n; u++ {
		base := c.Offsets[u]
		for i, v := range g.adj[u] {
			if v > u {
				e := int32(len(c.edges))
				c.edges = append(c.edges, Edge{u, v})
				c.ArcID[base+int32(i)] = 2 * e
				c.ArcID[c.Offsets[v]+rev[v]] = 2*e + 1
				rev[v]++
			}
		}
	}
	return c
}

// mutated invalidates any cached CSR snapshot.
func (g *Graph) mutated() { g.version++ }
