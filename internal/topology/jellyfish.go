package topology

import (
	"fmt"
	"sort"

	"jellyfish/internal/graph"
	"jellyfish/internal/rng"
)

// Jellyfish builds RRG(n, k, r): n top-of-rack switches with k ports each,
// r of which connect to other switches and k-r to servers, wired by the
// paper's randomized procedure (§3): repeatedly join uniform-random
// non-adjacent switch pairs with free ports; when stuck with a switch
// holding ≥2 free ports, break a random existing link and splice the
// switch in. The result is connected for all practical (n, r≥3).
func Jellyfish(n, k, r int, src *rng.Source) *Topology {
	if r > k {
		panic(fmt.Sprintf("topology: network degree r=%d exceeds ports k=%d", r, k))
	}
	if r >= n {
		panic(fmt.Sprintf("topology: network degree r=%d requires at least r+1=%d switches, have %d", r, r+1, n))
	}
	t := &Topology{
		Name:    fmt.Sprintf("jellyfish(n=%d,k=%d,r=%d)", n, k, r),
		Graph:   graph.New(n),
		Ports:   make([]int, n),
		Servers: make([]int, n),
	}
	for i := 0; i < n; i++ {
		t.Ports[i] = k
		t.Servers[i] = k - r
	}
	netDegree := make([]int, n)
	for i := range netDegree {
		netDegree[i] = r
	}
	wireRandom(t, netDegree, src)
	return t
}

// JellyfishHeterogeneous builds a Jellyfish network from a heterogeneous
// switch inventory: switch i has ports[i] total ports and attaches
// servers[i] servers, leaving ports[i]-servers[i] network ports.
func JellyfishHeterogeneous(ports, servers []int, src *rng.Source) *Topology {
	n := len(ports)
	if len(servers) != n {
		panic("topology: ports/servers length mismatch")
	}
	t := &Topology{
		Name:    fmt.Sprintf("jellyfish-hetero(n=%d)", n),
		Graph:   graph.New(n),
		Ports:   append([]int(nil), ports...),
		Servers: append([]int(nil), servers...),
	}
	netDegree := make([]int, n)
	for i := range netDegree {
		netDegree[i] = ports[i] - servers[i]
		if netDegree[i] < 0 {
			panic(fmt.Sprintf("topology: switch %d has more servers than ports", i))
		}
	}
	wireRandom(t, netDegree, src)
	return t
}

// JellyfishSpread builds a Jellyfish of `switches` identical k-port
// switches carrying exactly `servers` servers spread evenly: the first
// servers%switches switches take one extra. The construction behind the
// capacity searches and most experiments.
func JellyfishSpread(switches, ports, servers int, src *rng.Source) *Topology {
	portsPer := make([]int, switches)
	serversPer := make([]int, switches)
	base, extra := servers/switches, servers%switches
	for i := range portsPer {
		portsPer[i] = ports
		serversPer[i] = base
		if i < extra {
			serversPer[i]++
		}
	}
	return JellyfishHeterogeneous(portsPer, serversPer, src)
}

// wireRandom implements the paper's random wiring over switches whose
// remaining network-port budget is netDegree[i] - currentDegree(i).
func wireRandom(t *Topology, netDegree []int, src *rng.Source) {
	g := t.Graph
	n := g.N()
	free := func(i int) int { return netDegree[i] - g.Degree(i) }

	// Active set: switches with at least one free network port.
	active := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if free(i) > 0 {
			active = append(active, i)
		}
	}
	compact := func() {
		w := 0
		for _, v := range active {
			if free(v) > 0 {
				active[w] = v
				w++
			}
		}
		active = active[:w]
	}

	// Phase 1: random matching of free ports.
	stall := 0
	for len(active) >= 2 {
		u := active[src.Intn(len(active))]
		v := active[src.Intn(len(active))]
		if u == v || g.HasEdge(u, v) || free(u) <= 0 || free(v) <= 0 {
			stall++
			if stall > 50*len(active) {
				if !anyJoinablePair(g, active, free) {
					break
				}
				stall = 0
			}
			continue
		}
		g.AddEdge(u, v)
		stall = 0
		if free(u) == 0 || free(v) == 0 {
			compact()
		}
	}
	compact()

	// Phase 2: splice-in repair for any switch left with ≥2 free ports
	// (§3: remove a random existing link (x,y), add (p,x),(p,y)).
	for _, p := range active {
		guard := 0
		for free(p) >= 2 && g.M() > 0 {
			guard++
			if guard > 100*n {
				break
			}
			e, ok := randomEdge(g, src)
			if !ok {
				break
			}
			if e.U == p || e.V == p || g.HasEdge(p, e.U) || g.HasEdge(p, e.V) {
				continue
			}
			g.RemoveEdge(e.U, e.V)
			g.AddEdge(p, e.U)
			g.AddEdge(p, e.V)
		}
	}
	compact()

	// Phase 3: two switches may each hold one free port while being
	// mutually adjacent (so phase 1 cannot join them and phase 2 does not
	// apply). Splice them across a random existing link: remove (x,y), add
	// (u,x) and (v,y).
	if len(active) == 2 {
		u, v := active[0], active[1]
		guard := 0
		for free(u) == 1 && free(v) == 1 && g.HasEdge(u, v) && g.M() > 0 {
			guard++
			if guard > 100*n {
				break
			}
			e, ok := randomEdge(g, src)
			if !ok {
				break
			}
			x, y := e.U, e.V
			if x == u || x == v || y == u || y == v {
				continue
			}
			if g.HasEdge(u, x) || g.HasEdge(v, y) {
				continue
			}
			g.RemoveEdge(x, y)
			g.AddEdge(u, x)
			g.AddEdge(v, y)
		}
	}
}

// randomEdge samples a uniform-random edge in O(N) time without
// materializing the edge list: pick a random directed arc (vertex weighted
// by degree, then uniform neighbor) and canonicalize.
func randomEdge(g *graph.Graph, src *rng.Source) (graph.Edge, bool) {
	if g.M() == 0 {
		return graph.Edge{}, false
	}
	target := src.Intn(2 * g.M())
	for u := 0; u < g.N(); u++ {
		d := g.Degree(u)
		if target < d {
			v := g.Neighbors(u)[target]
			return graph.Canon(u, v), true
		}
		target -= d
	}
	return graph.Edge{}, false // unreachable
}

// anyJoinablePair scans exhaustively for a pair of distinct non-adjacent
// active switches that both still have free ports.
func anyJoinablePair(g *graph.Graph, active []int, free func(int) int) bool {
	for i, u := range active {
		if free(u) <= 0 {
			continue
		}
		for _, v := range active[i+1:] {
			if free(v) > 0 && !g.HasEdge(u, v) {
				return true
			}
		}
	}
	return false
}

// ExpandJellyfish incorporates newSwitches additional switches, each with k
// ports of which r are network ports, into an existing Jellyfish topology
// using the paper's incremental procedure (§4.2): for each new switch u,
// repeatedly pick a random existing link (v,w) with u adjacent to neither,
// remove it, and add (u,v),(u,w), until u's network ports are (nearly)
// filled. The input topology is modified in place and returned.
func ExpandJellyfish(t *Topology, newSwitches, k, r int, src *rng.Source) *Topology {
	for s := 0; s < newSwitches; s++ {
		expandOne(t, k, r, k-r, src)
	}
	t.Name = fmt.Sprintf("jellyfish-expanded(n=%d)", t.NumSwitches())
	return t
}

// ExpandJellyfishSwitchOnly adds switches that carry no servers (pure
// network capacity expansion, as in the paper's LEGUP comparison).
func ExpandJellyfishSwitchOnly(t *Topology, newSwitches, k int, src *rng.Source) *Topology {
	for s := 0; s < newSwitches; s++ {
		expandOne(t, k, k, 0, src)
	}
	return t
}

func expandOne(t *Topology, k, r, servers int, src *rng.Source) {
	g := t.Graph
	u := g.AddVertex()
	t.Ports = append(t.Ports, k)
	t.Servers = append(t.Servers, servers)

	guard := 0
	for g.Degree(u)+1 < r { // add links two at a time while ≥2 ports free
		guard++
		if guard > 200*(g.N()+1) {
			break
		}
		e, ok := randomEdge(g, src)
		if !ok {
			// Degenerate start: no links to split.
			break
		}
		if e.U == u || e.V == u || g.HasEdge(u, e.U) || g.HasEdge(u, e.V) {
			continue
		}
		g.RemoveEdge(e.U, e.V)
		g.AddEdge(u, e.U)
		g.AddEdge(u, e.V)
		guard = 0
	}
	// A single odd port may remain; the paper permits leaving it free (or
	// matching it to another free port elsewhere — we leave it free).
}

// RemoveRandomLinks deletes a uniform-random fraction frac of the
// switch-switch links, simulating link failures (§4.3). It returns the
// number of links removed. The topology is modified in place.
func RemoveRandomLinks(t *Topology, frac float64, src *rng.Source) int {
	edges := t.Graph.Edges()
	kill := int(frac * float64(len(edges)))
	perm := src.Perm(len(edges))
	for i := 0; i < kill; i++ {
		e := edges[perm[i]]
		t.Graph.RemoveEdge(e.U, e.V)
	}
	return kill
}

// FailRandomSwitches simulates whole-switch failures (§4.3 considers both
// link and node failures): a uniform-random fraction frac of switches lose
// all their network links and their servers drop out of the workload
// (Servers[i] set to 0). Returns the switch IDs failed, sorted.
func FailRandomSwitches(t *Topology, frac float64, src *rng.Source) []int {
	n := t.Graph.N()
	kill := int(frac * float64(n))
	perm := src.Perm(n)
	failed := append([]int(nil), perm[:kill]...)
	FailSwitches(t, failed)
	sort.Ints(failed)
	return failed
}
