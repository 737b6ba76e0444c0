// Package estimate provides bounded approximate throughput estimators for
// megascale planning: fast procedures that bracket the maximum concurrent
// flow λ* of a compact topology + commodity set between certified bounds,
// never point estimates. The contract every implementation obeys is
//
//	Bounds.Lower ≤ λ* ≤ Bounds.Upper
//
// with both sides computed from explicit primal/dual certificates — a
// concrete feasible routing for the lower bound, a concrete cut or dual
// solution for the upper — so a caller can trust a rejection (Upper below
// target) or an acceptance (Lower above target) without ever running the
// exact solver. Estimators are deterministic: the same (topology,
// commodities, kind, sample, seed) produce the same Bounds on every call,
// worker count, and process.
package estimate

import (
	"context"
	"fmt"
	"math"

	"jellyfish/internal/graph"
	"jellyfish/internal/mcf"
	"jellyfish/internal/topology"
)

// Bounds brackets the exact maximum concurrent flow λ*.
type Bounds struct {
	// Lower ≤ λ* ≤ Upper.
	Lower, Upper float64
	// LowerCert and UpperCert name the certificates the bounds rest on.
	LowerCert, UpperCert string
}

// A ThroughputEstimator brackets λ* for compact instances. Implementations
// reuse internal scratch across calls and are NOT safe for concurrent use;
// build one per goroutine (they are cheap). Estimate is a pure function of
// its arguments and the estimator's construction parameters: internal
// randomness is re-derived from the constructor seed on every call, so
// call order and call count never shift a result.
//
// Estimators that run solves (today: sampled-mcf, whose phase-capped
// solves poll ctx once per GK phase) return early with a soundly loose
// bracket once ctx is cancelled; callers that cancel must discard the
// result anyway. The others ignore ctx. While ctx is live, results are
// byte-identical for every context.
type ThroughputEstimator interface {
	Name() string
	Estimate(ctx context.Context, c *topology.Compact, comms []mcf.Commodity) Bounds
}

// Kinds lists the available estimator kinds, in documentation order.
func Kinds() []string { return []string{"bisection", "spectral", "sampled-mcf"} }

// DefaultSample is the sampled-mcf commodity subsample size when the
// caller passes sample ≤ 0.
const DefaultSample = 64

// New builds an estimator. kind selects the implementation ("bisection",
// "spectral", "sampled-mcf"); sample is the sampled-mcf subsample size
// (≤ 0 selects DefaultSample, ignored by the other kinds); seed drives
// all internal randomness.
func New(kind string, sample int, seed uint64) (ThroughputEstimator, error) {
	switch kind {
	case "bisection":
		return &bisectionEstimator{core: core{seed: seed}}, nil
	case "spectral":
		return &spectralEstimator{core: core{seed: seed}}, nil
	case "sampled-mcf":
		if sample <= 0 {
			sample = DefaultSample
		}
		return &sampledEstimator{core: core{seed: seed}, sample: sample}, nil
	default:
		return nil, fmt.Errorf("estimate: unknown estimator kind %q (have %v)", kind, Kinds())
	}
}

// core holds the machinery shared by every estimator: the effective
// commodity filter, the shortest-path-routing primal lower bound, the
// per-switch uplink cut upper bound, and per-switch demand aggregation.
// All scratch is reused across calls.
type core struct {
	seed uint64

	eff            []mcf.Commodity // effective commodities (src != dst, demand > 0)
	outDem, inDem  []float64       // per-switch directional demand
	srcCount       []int32         // counting-sort scratch / per-source offsets
	commIdx        []int32         // commodity indices grouped by source
	dist, queue    []int32         // BFS scratch
	via            []int32         // arc id used to first reach each vertex
	arcLoad        []float64       // per-arc SPR load
	needStamp      []uint32        // per-vertex "is a pending destination" stamp
	epoch          uint32
	weights, sideA []int // bisection weight / side scratch
}

// prepare filters comms into c.eff and aggregates per-switch directional
// demand. Returns false when no effective commodities remain (λ* = +Inf).
func (c *core) prepare(n int, comms []mcf.Commodity) bool {
	c.eff = c.eff[:0]
	c.outDem = resizeFloat(c.outDem, n)
	c.inDem = resizeFloat(c.inDem, n)
	clear(c.outDem)
	clear(c.inDem)
	for _, cm := range comms {
		if cm.Src != cm.Dst && cm.Demand > 0 {
			c.eff = append(c.eff, cm)
			c.outDem[cm.Src] += cm.Demand
			c.inDem[cm.Dst] += cm.Demand
		}
	}
	return len(c.eff) > 0
}

// infinite is the Bounds for an instance with no effective commodities,
// mirroring mcf.MaxConcurrentFlow's λ = +Inf convention.
func infinite() Bounds {
	return Bounds{
		Lower:     math.Inf(1),
		Upper:     math.Inf(1),
		LowerCert: "no effective commodities",
		UpperCert: "no effective commodities",
	}
}

// disconnected is the Bounds for an instance where some commodity's
// endpoints lie in different components: λ* = 0 exactly.
func disconnected(cm mcf.Commodity) Bounds {
	cert := fmt.Sprintf("commodity %d→%d disconnected", cm.Src, cm.Dst)
	return Bounds{LowerCert: cert, UpperCert: cert}
}

// uplinkCut returns the per-switch uplink cut upper bound: isolating any
// single switch sw cuts degree(sw) unit links, which must carry
// λ·max(outDemand(sw), inDemand(sw)) in some direction, so
// λ* ≤ min over demanding switches of degree(sw)/max(out, in).
// prepare must have run. Returns +Inf if it never binds (cannot happen
// for a non-empty effective set, kept for safety).
func (c *core) uplinkCut(csr *graph.CSR) float64 {
	bound := math.Inf(1)
	for sw := 0; sw < csr.N(); sw++ {
		d := c.outDem[sw]
		if c.inDem[sw] > d {
			d = c.inDem[sw]
		}
		if d <= 0 {
			continue
		}
		if b := float64(csr.Degree(sw)) / d; b < bound {
			bound = b
		}
	}
	return bound
}

// sprLower computes the shortest-path-routing primal lower bound: every
// commodity routed in full on its lexicographic-first BFS shortest path,
// then the whole flow scaled down by the worst arc overuse. The scaled
// flow is feasible and carries the same fraction 1/overuse of every
// demand, so λ* ≥ 1/overuse. Returns (bound, ok); ok is false when some
// commodity is disconnected (the caller should return disconnected
// bounds), with the offending commodity in cm.
//
// Cost: one early-exiting BFS per distinct source plus one root-walk per
// commodity — O(sources·(n+m) + Σ path lengths) worst case, with the
// early exit cutting most BFS runs far short on permutation traffic.
func (c *core) sprLower(csr *graph.CSR) (bound float64, cm mcf.Commodity, ok bool) {
	n := csr.N()

	// Group commodity indices by source with a counting sort.
	c.srcCount = resizeInt32(c.srcCount, n+1)
	clear(c.srcCount)
	for _, e := range c.eff {
		c.srcCount[e.Src+1]++
	}
	for v := 0; v < n; v++ {
		c.srcCount[v+1] += c.srcCount[v]
	}
	c.commIdx = resizeInt32(c.commIdx, len(c.eff))
	cursor := c.srcCount
	for i, e := range c.eff {
		c.commIdx[cursor[e.Src]] = int32(i)
		cursor[e.Src]++
	}
	// cursor advanced each slot by its own count; cursor[s-1] is now the
	// start of s's group and cursor[n] stayed len(eff). Walk groups by
	// remembering the previous boundary instead of re-deriving.

	c.dist = resizeInt32(c.dist, n)
	c.queue = resizeInt32(c.queue, n)
	c.via = resizeInt32(c.via, n)
	if len(c.needStamp) != n {
		c.needStamp = make([]uint32, n)
		c.epoch = 0
	}
	c.arcLoad = resizeFloat(c.arcLoad, 2*csr.M())
	clear(c.arcLoad)

	groupStart := int32(0)
	for s := 0; s < n; s++ {
		groupEnd := c.srcCount[s]
		group := c.commIdx[groupStart:groupEnd]
		groupStart = groupEnd
		if len(group) == 0 {
			continue
		}
		// Mark this source's destinations and BFS until all are settled.
		c.epoch++
		if c.epoch == 0 {
			clear(c.needStamp)
			c.epoch = 1
		}
		pending := 0
		for _, ci := range group {
			d := c.eff[ci].Dst
			if c.needStamp[d] != c.epoch {
				c.needStamp[d] = c.epoch
				pending++
			}
		}
		for i := range c.dist {
			c.dist[i] = -1
		}
		c.dist[s] = 0
		q := c.queue[:1]
		q[0] = int32(s)
		for head := 0; head < len(q) && pending > 0; head++ {
			u := q[head]
			du := c.dist[u] + 1
			lo, hi := csr.Offsets[u], csr.Offsets[u+1]
			for i := lo; i < hi; i++ {
				v := csr.Nbrs[i]
				if c.dist[v] != -1 {
					continue
				}
				c.dist[v] = du
				c.via[v] = csr.ArcID[i]
				if c.needStamp[v] == c.epoch {
					pending--
				}
				q = append(q, v)
			}
		}
		// Route each commodity backwards along its discovery path.
		for _, ci := range group {
			e := c.eff[ci]
			if c.dist[e.Dst] == -1 {
				return 0, e, false
			}
			for v := int32(e.Dst); v != int32(s); {
				arc := c.via[v]
				c.arcLoad[arc] += e.Demand
				// The arc's tail is the other endpoint of edge arc/2.
				ed := csr.Edges()[arc/2]
				if int32(ed.U) == v {
					v = int32(ed.V)
				} else {
					v = int32(ed.U)
				}
			}
		}
	}

	maxLoad := 0.0
	for _, l := range c.arcLoad {
		if l > maxLoad {
			maxLoad = l
		}
	}
	if maxLoad == 0 {
		return math.Inf(1), mcf.Commodity{}, true
	}
	return 1 / maxLoad, mcf.Commodity{}, true
}

// serverWeights expands the compact run-length server counts into a
// per-switch weight slice for balanced partitioning, falling back to unit
// weights when the topology carries no servers.
func (c *core) serverWeights(t *topology.Compact) []int {
	n := t.NumSwitches()
	if cap(c.weights) < n {
		c.weights = make([]int, n)
	}
	c.weights = c.weights[:n]
	sw := 0
	for _, r := range t.Servers {
		for i := int32(0); i < r.Count; i++ {
			c.weights[sw] = int(r.Value)
			sw++
		}
	}
	if t.NumServers() == 0 {
		for i := range c.weights {
			c.weights[i] = 1
		}
	}
	return c.weights
}

// cutBound evaluates the upper bound certified by one vertex bipartition:
// the crossing capacity divided by the larger directional demand across
// it. Returns +Inf when no demand crosses (the cut certifies nothing).
func (c *core) cutBound(csr *graph.CSR, side []bool) float64 {
	cutCap := 0.0
	for _, e := range csr.Edges() {
		if side[e.U] != side[e.V] {
			cutCap++
		}
	}
	var dAB, dBA float64
	for _, cm := range c.eff {
		switch {
		case !side[cm.Src] && side[cm.Dst]:
			dAB += cm.Demand
		case side[cm.Src] && !side[cm.Dst]:
			dBA += cm.Demand
		}
	}
	d := dAB
	if dBA > d {
		d = dBA
	}
	if d <= 0 {
		return math.Inf(1)
	}
	return cutCap / d
}

func resizeFloat(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func resizeInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
