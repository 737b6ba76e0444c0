// Package maxflow implements Dinic's maximum-flow algorithm on
// undirected networks with float64 capacities. It is used to compute
// exact minimum cuts (bisection certificates) on the explicit topologies
// built elsewhere in this repository, and to verify the r-connectivity
// claims the Jellyfish paper makes about random regular graphs.
package maxflow

import "math"

// eps guards float comparisons on residual capacities.
const eps = 1e-12

// Network is a flow network on vertices 0..n-1, built from undirected
// edges with AddUndirected.
type Network struct {
	n     int
	head  [][]int // arc indices per node
	to    []int
	cap   []float64
	level []int
	iter  []int
}

// New returns an empty network with n vertices.
func New(n int) *Network {
	return &Network{n: n, head: make([][]int, n)}
}

// AddUndirected adds capacity c in both directions between u and v.
func (nw *Network) AddUndirected(u, v int, c float64) {
	// Two arcs whose reverse arcs carry the opposite direction's capacity:
	// a single pair with cap c on both entries models an undirected edge.
	id := len(nw.to)
	nw.to = append(nw.to, v, u)
	nw.cap = append(nw.cap, c, c)
	nw.head[u] = append(nw.head[u], id)
	nw.head[v] = append(nw.head[v], id+1)
}

// MaxFlow computes the maximum s-t flow. The network's residual state is
// consumed.
func (nw *Network) MaxFlow(s, t int) float64 {
	if s == t {
		return math.Inf(1)
	}
	var flow float64
	nw.level = make([]int, nw.n)
	nw.iter = make([]int, nw.n)
	for nw.bfsLevel(s, t) {
		for i := range nw.iter {
			nw.iter[i] = 0
		}
		for {
			f := nw.dfsAugment(s, t, math.Inf(1))
			if f <= eps {
				break
			}
			flow += f
		}
	}
	return flow
}

func (nw *Network) bfsLevel(s, t int) bool {
	for i := range nw.level {
		nw.level[i] = -1
	}
	queue := make([]int, 0, nw.n)
	queue = append(queue, s)
	nw.level[s] = 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, a := range nw.head[u] {
			v := nw.to[a]
			if nw.cap[a] > eps && nw.level[v] < 0 {
				nw.level[v] = nw.level[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return nw.level[t] >= 0
}

func (nw *Network) dfsAugment(u, t int, f float64) float64 {
	if u == t {
		return f
	}
	for ; nw.iter[u] < len(nw.head[u]); nw.iter[u]++ {
		a := nw.head[u][nw.iter[u]]
		v := nw.to[a]
		if nw.cap[a] <= eps || nw.level[v] != nw.level[u]+1 {
			continue
		}
		d := nw.dfsAugment(v, t, math.Min(f, nw.cap[a]))
		if d > eps {
			nw.cap[a] -= d
			nw.cap[a^1] += d
			return d
		}
	}
	return 0
}
