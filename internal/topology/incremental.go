package topology

import (
	"jellyfish/internal/rng"
)

// Incremental server placement: grow the server count of an existing
// Jellyfish without rebuilding the random graph. This is the paper's §4.2
// flexibility argument applied to the server dial instead of the switch
// count — and, like ExpandJellyfish, it perturbs only O(1) links per step,
// which is what lets capacity searches warm-start the flow solver across
// adjacent server counts (adjacent search points share almost every edge).
// Fig. 6's incremental-vs-scratch result is the experimental license:
// incrementally derived random graphs evaluate like from-scratch ones.

// AddServerSpread attaches one server to the topology, keeping the
// placement spread-even: the target is the least-loaded switch (lowest
// index on ties) that can host another server. If the target has no free
// port, one of its network links (chosen uniformly at random) is removed
// to free one; the severed peer's port joins the free-port pool, and the
// pool is re-matched into links — joining two free ports directly, or
// splicing across a random existing link when they sit on adjacent
// switches — so every two servers added cost exactly one network link,
// the same port arithmetic as building from scratch. Returns the switch
// that received the server, or -1 if no switch can host one.
func AddServerSpread(t *Topology, src *rng.Source) int {
	g := t.Graph
	n := g.N()
	sw := -1
	for i := 0; i < n; i++ {
		if t.Servers[i] >= t.Ports[i] {
			continue // no port budget left at all
		}
		if t.FreePorts(i) == 0 && g.Degree(i) == 0 {
			continue // fully committed and no link to sacrifice
		}
		if sw < 0 || t.Servers[i] < t.Servers[sw] {
			sw = i
		}
	}
	if sw < 0 {
		return -1
	}
	if t.FreePorts(sw) == 0 {
		// Free a port by cutting a random incident link; the peer's freed
		// port goes to the pool and is re-matched below.
		nbrs := g.Neighbors(sw)
		x := nbrs[src.Intn(len(nbrs))]
		g.RemoveEdge(sw, x)
	}
	t.Servers[sw]++
	rematchFreePorts(t, src)
	return sw
}

// rematchFreePorts joins dangling network ports back into links, in the
// spirit of the construction's repair phases (§3): a switch holding ≥2
// free ports splices itself into a random existing link; two distinct
// switches with free ports are joined directly, or spliced across a
// random link when already adjacent. At most a single free port remains
// afterwards (odd pool), exactly like from-scratch wiring.
func rematchFreePorts(t *Topology, src *rng.Source) {
	g := t.Graph
	n := g.N()

	// Phase-2 style: a switch with ≥2 free ports absorbs a random link.
	for p := 0; p < n; p++ {
		guard := 0
		for t.FreePorts(p) >= 2 && g.M() > 0 && guard <= 100*n {
			guard++
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

	// Pair up switches left with exactly one free port each.
	for {
		u, v := -1, -1
		for i := 0; i < n && v < 0; i++ {
			if t.FreePorts(i) == 0 {
				continue
			}
			if u < 0 {
				u = i
			} else {
				v = i
			}
		}
		if v < 0 {
			return // zero or one free port left: done
		}
		if !g.HasEdge(u, v) {
			g.AddEdge(u, v)
			continue
		}
		// Adjacent pair: splice across a random existing link (x,y),
		// turning (x,y) into (u,x),(v,y).
		guard := 0
		spliced := false
		for ; guard <= 100*n && g.M() > 0; guard++ {
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
			spliced = true
			break
		}
		if !spliced {
			return // pathological small graph: leave the ports free
		}
	}
}

// FailSwitches fails exactly the given switches in place — every incident
// link removed and the attached servers dropped from the workload — the
// deterministic core of FailRandomSwitches. Passing nested ID sets yields
// nested failure scenarios, which is what lets failure sweeps share a
// topology (and warm-start its solves) across failure fractions.
func FailSwitches(t *Topology, ids []int) {
	for _, sw := range ids {
		for _, v := range append([]int(nil), t.Graph.Neighbors(sw)...) {
			t.Graph.RemoveEdge(sw, v)
		}
		t.Servers[sw] = 0
	}
}
