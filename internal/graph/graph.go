// Package graph implements the undirected simple-graph substrate that every
// topology in this repository is built on: adjacency storage with O(log d)
// membership tests, breadth-first shortest paths, all-pairs path statistics
// (multi-source BFS: 64 searches per pass, one bit per search in a machine
// word per vertex), connectivity, global edge connectivity
// (EdgeConnectivity, by unit-capacity augmenting paths over the CSR
// snapshot), and loopless k-shortest paths.
//
// Vertices are dense integers 0..N-1 (switch IDs). Graphs are simple
// (no self-loops, no parallel edges), matching the Jellyfish construction
// rule that two switches are joined by at most one cable.
package graph

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// An Edge is an undirected edge between vertices U and V with U < V.
type Edge struct {
	U, V int
}

// Canon returns the edge with endpoints ordered U < V.
func Canon(u, v int) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{u, v}
}

// Graph is a mutable undirected simple graph on vertices 0..N()-1.
// The zero value is an empty graph with no vertices; use New.
type Graph struct {
	adj [][]int // sorted adjacency lists
	m   int     // number of edges

	// CSR snapshot cache: version counts successful mutations, csr holds
	// the last snapshot built (tagged with the version it reflects).
	version uint64
	csr     atomic.Pointer[csrSnap]
}

// New returns an empty graph with n vertices and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{adj: make([][]int, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// AddVertex appends a new isolated vertex and returns its ID.
func (g *Graph) AddVertex() int {
	g.adj = append(g.adj, nil)
	g.mutated()
	return len(g.adj) - 1
}

// Degree returns the degree of vertex u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// Neighbors returns the sorted neighbor list of u. The returned slice is
// owned by the graph and must not be modified.
func (g *Graph) Neighbors(u int) []int { return g.adj[u] }

// HasEdge reports whether the edge {u,v} is present.
func (g *Graph) HasEdge(u, v int) bool {
	if u == v {
		return false
	}
	a := g.adj[u]
	i := sort.SearchInts(a, v)
	return i < len(a) && a[i] == v
}

// AddEdge inserts the edge {u,v}. It panics on self-loops and returns false
// without modification if the edge already exists.
func (g *Graph) AddEdge(u, v int) bool {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at vertex %d", u))
	}
	if u < 0 || v < 0 || u >= len(g.adj) || v >= len(g.adj) {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, len(g.adj)))
	}
	if g.HasEdge(u, v) {
		return false
	}
	g.insertHalf(u, v)
	g.insertHalf(v, u)
	g.m++
	g.mutated()
	return true
}

// RemoveEdge deletes the edge {u,v}, reporting whether it was present.
func (g *Graph) RemoveEdge(u, v int) bool {
	if !g.HasEdge(u, v) {
		return false
	}
	g.removeHalf(u, v)
	g.removeHalf(v, u)
	g.m--
	g.mutated()
	return true
}

func (g *Graph) insertHalf(u, v int) {
	a := g.adj[u]
	i := sort.SearchInts(a, v)
	a = append(a, 0)
	copy(a[i+1:], a[i:])
	a[i] = v
	g.adj[u] = a
}

func (g *Graph) removeHalf(u, v int) {
	a := g.adj[u]
	i := sort.SearchInts(a, v)
	copy(a[i:], a[i+1:])
	g.adj[u] = a[:len(a)-1]
}

// Edges returns all edges with U < V, sorted lexicographically.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.m)
	for u, ns := range g.adj {
		for _, v := range ns {
			if u < v {
				es = append(es, Edge{u, v})
			}
		}
	}
	return es
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make([][]int, len(g.adj)), m: g.m}
	for u, ns := range g.adj {
		c.adj[u] = append([]int(nil), ns...)
	}
	return c
}

// Connected reports whether the graph is connected (true for N ≤ 1).
func (g *Graph) Connected() bool {
	n := g.N()
	if n <= 1 {
		return true
	}
	return g.componentSize(0) == n
}

func (g *Graph) componentSize(s int) int {
	seen := make([]bool, g.N())
	queue := []int{s}
	seen[s] = true
	count := 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		count++
		for _, v := range g.adj[u] {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return count
}

// IsRegular reports whether every vertex has degree r.
func (g *Graph) IsRegular(r int) bool {
	for _, ns := range g.adj {
		if len(ns) != r {
			return false
		}
	}
	return true
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.N(), g.m)
}
