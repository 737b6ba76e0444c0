package estimate

import (
	"context"
	"fmt"
	"math"
	"sort"

	"jellyfish/internal/graph"
	"jellyfish/internal/mcf"
	"jellyfish/internal/topology"
)

// spectralIters is the power-iteration budget for the Fiedler-direction
// vector. The sweep cut below is certified by explicit evaluation, so the
// iteration count only affects how good the vertex ordering is, never
// soundness; 100 iterations separate the second eigenvector well past the
// ordering's needs on expander-like instances.
const spectralIters = 100

// spectralEstimator bounds λ* with a Cheeger-style sweep cut: order
// vertices by an approximate second adjacency eigenvector (the direction
// along which the graph pinches, per the expander argument the paper's
// capacity results rest on), then evaluate every prefix cut of that order
// in one O(n log n + m + |comms|) pass via difference arrays. Each prefix
// is an explicit bipartition, so the certified bound is exact for the best
// prefix regardless of eigenvector accuracy or regularity. The lower
// bound is the shared shortest-path-routing primal certificate.
type spectralEstimator struct {
	core
	x, y           []float64 // power-iteration vectors
	rank           []int32   // vertex → position in sweep order
	order          []int32   // sweep order (argsort of x)
	capDiff        []float64 // difference array: crossing capacity per prefix
	abDiff, baDiff []float64 // difference arrays: directional demand per prefix
}

func (e *spectralEstimator) Name() string { return "spectral" }

func (e *spectralEstimator) Estimate(_ context.Context, t *topology.Compact, comms []mcf.Commodity) Bounds {
	csr := t.CSR
	if !e.prepare(csr.N(), comms) {
		return infinite()
	}
	lower, bad, ok := e.sprLower(csr)
	if !ok {
		return disconnected(bad)
	}
	upper := e.uplinkCut(csr)
	upperCert := "per-switch uplink cut"
	if b, p := e.sweepCut(csr); b < upper {
		upper = b
		upperCert = fmt.Sprintf("spectral sweep cut (prefix %d of %d)", p, csr.N())
	}
	return Bounds{
		Lower:     lower,
		Upper:     upper,
		LowerCert: "shortest-path routing scaled to worst arc overuse",
		UpperCert: upperCert,
	}
}

// sweepCut returns the best prefix-cut bound over the spectral order and
// the prefix size achieving it (+Inf, 0 when no prefix carries crossing
// demand). prepare must have run.
func (e *spectralEstimator) sweepCut(csr *graph.CSR) (float64, int) {
	n := csr.N()
	if n < 2 {
		return math.Inf(1), 0
	}
	e.powerIterate(csr)

	// Sweep order: eigenvector value ascending, vertex id tie-break.
	e.order = resizeInt32(e.order, n)
	for i := range e.order {
		e.order[i] = int32(i)
	}
	x := e.x
	sort.Slice(e.order, func(a, b int) bool {
		va, vb := e.order[a], e.order[b]
		if x[va] != x[vb] {
			return x[va] < x[vb]
		}
		return va < vb
	})
	e.rank = resizeInt32(e.rank, n)
	for p, v := range e.order {
		e.rank[v] = int32(p)
	}

	// A prefix cut p splits {order[0..p-1]} from the rest, p in 1..n-1.
	// An edge with endpoint ranks ru < rv crosses exactly the prefixes
	// p in (ru, rv]; a commodity with src rank rs < dst rank rt sends
	// prefix-A→B demand for the same interval (B→A when rs > rt). Both
	// accumulate as interval-add difference arrays, one prefix sum each.
	e.capDiff = resizeFloat(e.capDiff, n+1)
	e.abDiff = resizeFloat(e.abDiff, n+1)
	e.baDiff = resizeFloat(e.baDiff, n+1)
	clear(e.capDiff)
	clear(e.abDiff)
	clear(e.baDiff)
	for _, ed := range csr.Edges() {
		ru, rv := e.rank[ed.U], e.rank[ed.V]
		if ru > rv {
			ru, rv = rv, ru
		}
		e.capDiff[ru+1]++
		e.capDiff[rv+1]--
	}
	for _, cm := range e.eff {
		rs, rt := e.rank[cm.Src], e.rank[cm.Dst]
		if rs < rt {
			e.abDiff[rs+1] += cm.Demand
			e.abDiff[rt+1] -= cm.Demand
		} else {
			e.baDiff[rt+1] += cm.Demand
			e.baDiff[rs+1] -= cm.Demand
		}
	}

	best := math.Inf(1)
	bestP := 0
	var cutCap, dAB, dBA float64
	for p := 1; p < n; p++ {
		cutCap += e.capDiff[p]
		dAB += e.abDiff[p]
		dBA += e.baDiff[p]
		d := dAB
		if dBA > d {
			d = dBA
		}
		if d <= 0 {
			continue
		}
		if b := cutCap / d; b < best {
			best = b
			bestP = p
		}
	}
	return best, bestP
}

// powerIterate fills e.x with an approximate second adjacency eigenvector
// over the snapshot: the deterministic xorshift start vector and
// deflate-against-all-ones scheme of graph.SecondEigenvalue, generalized
// to any graph because the sweep cut never assumes regularity.
func (e *spectralEstimator) powerIterate(csr *graph.CSR) {
	n := csr.N()
	e.x = resizeFloat(e.x, n)
	e.y = resizeFloat(e.y, n)
	x, y := e.x, e.y
	h := uint64(0x9e3779b97f4a7c15)
	for i := range x {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		x[i] = float64(h%2048)/1024 - 1
	}
	deflate(x)
	normalize(x)
	for it := 0; it < spectralIters; it++ {
		clear(y)
		for u := 0; u < n; u++ {
			xu := x[u]
			for _, v := range csr.Nbrs[csr.Offsets[u]:csr.Offsets[u+1]] {
				y[v] += xu
			}
		}
		deflate(y)
		if !normalize(y) {
			break // vector vanished; keep the previous x as the order
		}
		x, y = y, x
	}
	e.x, e.y = x, y
}

// deflate removes the component along the all-ones vector.
func deflate(x []float64) {
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	for i := range x {
		x[i] -= mean
	}
}

// normalize scales x to unit length, reporting false on the zero vector.
func normalize(x []float64) bool {
	var s float64
	for _, v := range x {
		s += v * v
	}
	if s == 0 {
		return false
	}
	inv := 1 / math.Sqrt(s)
	for i := range x {
		x[i] *= inv
	}
	return true
}
