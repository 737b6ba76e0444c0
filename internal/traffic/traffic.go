// Package traffic generates the workloads the Jellyfish paper evaluates
// with: server-level random-permutation traffic (every server sends at full
// NIC rate to exactly one other server and receives from exactly one), plus
// all-to-all and hotspot generators used by the extension experiments.
package traffic

import (
	"jellyfish/internal/mcf"
	"jellyfish/internal/rng"
)

// A Flow is one server-to-server demand at unit (NIC) rate.
type Flow struct {
	SrcServer, DstServer int
	SrcSwitch, DstSwitch int
}

// A Pattern is a server-level traffic pattern over a topology's servers.
type Pattern struct {
	// ServerSwitch[i] is the switch hosting server i.
	ServerSwitch []int
	// Flows lists every demand (unit rate each).
	Flows []Flow
}

// Commodities aggregates the server flows into switch-level commodities for
// the concurrent-flow solver, merging flows that share a (srcSwitch,
// dstSwitch) pair. Same-switch flows are included (the solver ignores them;
// they never traverse the network and always run at full rate).
func (p *Pattern) Commodities() []mcf.Commodity {
	type key struct{ s, d int }
	agg := map[key]float64{}
	for _, f := range p.Flows {
		agg[key{f.SrcSwitch, f.DstSwitch}]++
	}
	out := make([]mcf.Commodity, 0, len(agg))
	// Deterministic order: iterate flows, emit a commodity the first time a
	// pair is seen.
	seen := map[key]bool{}
	for _, f := range p.Flows {
		k := key{f.SrcSwitch, f.DstSwitch}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, mcf.Commodity{Src: k.s, Dst: k.d, Demand: agg[k]})
	}
	return out
}

// RandomPermutation builds the paper's random-permutation workload over the
// given server-to-switch assignment: a uniform random derangement of
// servers (no server sends to itself).
func RandomPermutation(serverSwitch []int, src *rng.Source) *Pattern {
	n := len(serverSwitch)
	dest := derangement(n, src)
	p := &Pattern{ServerSwitch: serverSwitch, Flows: make([]Flow, 0, n)}
	for s, d := range dest {
		p.Flows = append(p.Flows, Flow{
			SrcServer: s, DstServer: d,
			SrcSwitch: serverSwitch[s], DstSwitch: serverSwitch[d],
		})
	}
	return p
}

// CycleSuccessors samples a uniform random cyclic permutation of n
// elements by successive uniform insertion: element i enters the cycle
// after a uniform random predecessor among 0..i-1, so the cycle over the
// first s elements is a prefix-stable function of the stream — the
// permutation at s+1 extends the one at s with a single element spliced
// in. The stream is consumed strictly in element order (one draw per
// element past the first), which is what lets capacity searches rebuild
// the same nested permutations at every probe. Returns next[i], the
// successor of element i.
func CycleSuccessors(n int, src *rng.Source) []int {
	next := make([]int, n)
	for i := 1; i < n; i++ {
		x := src.Intn(i)
		next[i] = next[x]
		next[x] = i
	}
	return next
}

// NestedCycle builds the capacity-search workload as a server-level
// pattern: a uniform random cyclic permutation over the server slots
// (CycleSuccessors), each server sending one unit toward its successor.
// Under a stable slot assignment (an incremental topology family), the
// pattern at s+1 servers rewires exactly one flow of the pattern at s —
// the transport analogue of capsearch's nested commodities.
func NestedCycle(serverSwitch []int, src *rng.Source) *Pattern {
	next := CycleSuccessors(len(serverSwitch), src)
	p := &Pattern{ServerSwitch: serverSwitch, Flows: make([]Flow, 0, len(serverSwitch))}
	for s, d := range next {
		p.Flows = append(p.Flows, Flow{
			SrcServer: s, DstServer: d,
			SrcSwitch: serverSwitch[s], DstSwitch: serverSwitch[d],
		})
	}
	return p
}

// derangement samples a uniform permutation and repairs fixed points by
// cyclic rotation among them (plus one extra swap if a single fixed point
// remains), yielding a fixed-point-free permutation.
func derangement(n int, src *rng.Source) []int {
	if n == 1 {
		return []int{0} // degenerate: a single server can only "send" to itself
	}
	perm := src.Perm(n)
	var fixed []int
	for i, v := range perm {
		if i == v {
			fixed = append(fixed, i)
		}
	}
	switch len(fixed) {
	case 0:
	case 1:
		i := fixed[0]
		j := src.Intn(n - 1)
		if j >= i {
			j++
		}
		perm[i], perm[j] = perm[j], perm[i]
	default:
		for x := 0; x < len(fixed); x++ {
			i, j := fixed[x], fixed[(x+1)%len(fixed)]
			perm[i] = j
		}
	}
	return perm
}

// AllToAll builds the uniform all-to-all workload: every ordered server
// pair exchanges 1/(n-1) units so each server still sources one NIC of
// demand. Returned as switch-level commodities directly (the server-level
// flow list would be quadratic).
func AllToAll(serverSwitch []int) []mcf.Commodity {
	n := len(serverSwitch)
	if n < 2 {
		return nil
	}
	perServer := 1.0 / float64(n-1)
	// Demand between switch pair (a,b) = servers(a)·servers(b)·perServer.
	count := map[int]int{}
	maxSw := 0
	for _, sw := range serverSwitch {
		count[sw]++
		if sw > maxSw {
			maxSw = sw
		}
	}
	var out []mcf.Commodity
	for a := 0; a <= maxSw; a++ {
		if count[a] == 0 {
			continue
		}
		for b := 0; b <= maxSw; b++ {
			if a == b || count[b] == 0 {
				continue
			}
			out = append(out, mcf.Commodity{
				Src: a, Dst: b,
				Demand: float64(count[a]) * float64(count[b]) * perServer,
			})
		}
	}
	return out
}

// Hotspot builds a workload where frac of the servers (rounded up, at least
// one) all send to servers on a single hot switch, and the rest follow a
// random permutation. Used by the failure/extension experiments.
func Hotspot(serverSwitch []int, hotSwitch int, frac float64, src *rng.Source) *Pattern {
	base := RandomPermutation(serverSwitch, src)
	nHot := int(frac * float64(len(serverSwitch)))
	if nHot < 1 {
		nHot = 1
	}
	// Targets: servers on the hot switch (if none, pattern is unchanged).
	var hotServers []int
	for s, sw := range serverSwitch {
		if sw == hotSwitch {
			hotServers = append(hotServers, s)
		}
	}
	if len(hotServers) == 0 {
		return base
	}
	perm := src.Perm(len(serverSwitch))
	for i := 0; i < nHot && i < len(perm); i++ {
		s := perm[i]
		d := hotServers[src.Intn(len(hotServers))]
		if d == s {
			continue
		}
		base.Flows[s] = Flow{
			SrcServer: s, DstServer: d,
			SrcSwitch: serverSwitch[s], DstSwitch: serverSwitch[d],
		}
	}
	return base
}
