package estimate

import (
	"context"
	"fmt"
	"math"
	"sort"

	"jellyfish/internal/mcf"
	"jellyfish/internal/rng"
	"jellyfish/internal/topology"
)

// sampledEstimator bounds λ* by solving exact MCF on a seeded commodity
// subsample. The upper bound rests on commodity-subset monotonicity:
// dropping commodities only relaxes the program, so
//
//	λ*(full) ≤ λ*(subsample) ≤ dual bound of the subsample solve,
//
// making the sampled dual a certified upper bound on the full instance.
// There is no symmetric shortcut for the lower side (a subsample routing
// says nothing about the dropped demands), so the lower bound is the
// shared shortest-path-routing certificate over the FULL commodity set.
// The subsample is a deterministic function of (seed, |comms|): a seeded
// permutation prefix, sorted back to input order — the sampling
// certificate callers can replay.
type sampledEstimator struct {
	core
	sample int
	sub    []mcf.Commodity
	idx    []int
}

// solveOptions is the coarse solver configuration for estimator
// solves. The GK dual certificate is valid at every phase, not only at
// convergence, so capping phases and widening the step size keeps both
// bounds sound — the bracket just gets looser. The cap is what holds the
// estimator to interactive latency at megascale (a default 3000-phase
// solve on a 10k-switch instance runs minutes; 64 phases runs seconds).
var solveOptions = mcf.Options{Workers: 1, Epsilon: 0.25, Tol: 0.1, MaxPhases: 64}

func (e *sampledEstimator) Name() string { return "sampled-mcf" }

func (e *sampledEstimator) Estimate(ctx context.Context, t *topology.Compact, comms []mcf.Commodity) Bounds {
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

	k := e.sample
	if k > len(e.eff) {
		k = len(e.eff)
	}
	if k == len(e.eff) {
		// Subsample is the whole instance: the (phase-capped) solve runs
		// on the full program, so both certificates come from it.
		res := mcf.MaxConcurrentFlowCSR(ctx, csr, e.eff, solveOptions)
		if res.UpperBound < upper {
			upper = res.UpperBound
			upperCert = fmt.Sprintf("MCF dual (all %d commodities)", len(e.eff))
		}
		if res.Lambda > lower {
			lower = res.Lambda
			return Bounds{
				Lower:     lower,
				Upper:     upper,
				LowerCert: fmt.Sprintf("MCF primal (all %d commodities)", len(e.eff)),
				UpperCert: upperCert,
			}
		}
		return Bounds{
			Lower:     lower,
			Upper:     upper,
			LowerCert: "shortest-path routing scaled to worst arc overuse",
			UpperCert: upperCert,
		}
	}

	// Seeded sample: permutation prefix, restored to input order so the
	// solver sees commodities in a canonical sequence.
	src := rng.New(e.seed).Split("estimate-sample")
	perm := src.Perm(len(e.eff))
	e.idx = append(e.idx[:0], perm[:k]...)
	sort.Ints(e.idx)
	e.sub = e.sub[:0]
	for _, i := range e.idx {
		e.sub = append(e.sub, e.eff[i])
	}
	res := mcf.MaxConcurrentFlowCSR(ctx, csr, e.sub, solveOptions)
	if res.UpperBound < upper {
		upper = res.UpperBound
		upperCert = fmt.Sprintf("MCF dual on seeded subsample (%d of %d commodities, seed %d); λ*(full) ≤ λ*(subsample) ≤ dual",
			k, len(e.eff), e.seed)
	}
	if math.IsInf(upper, 1) {
		upperCert = "no binding bound"
	}
	return Bounds{
		Lower:     lower,
		Upper:     upper,
		LowerCert: "shortest-path routing scaled to worst arc overuse",
		UpperCert: upperCert,
	}
}
