package estimate

import (
	"context"
	"fmt"
	"math"

	"jellyfish/internal/mcf"
	"jellyfish/internal/rng"
	"jellyfish/internal/topology"
)

// bisectionRestarts is the number of random balanced partitions evaluated
// per estimate. Each cut certifies a valid upper bound on its own, so more
// restarts only tighten the minimum; 8 recovers the ballpark of the
// paper's bisection bound on random regular graphs without the O(n²)
// Kernighan–Lin refinement that KLBisection spends at paper scale.
const bisectionRestarts = 8

// bisectionEstimator bounds λ* with the paper's bisection argument
// (§Jellyfish, Fig. 2's capacity ceiling): any balanced vertex cut has
// λ* ≤ crossing capacity / demand crossing it. The lower bound is the
// shared shortest-path-routing primal certificate.
type bisectionEstimator struct {
	core
}

func (e *bisectionEstimator) Name() string { return "bisection" }

func (e *bisectionEstimator) Estimate(_ context.Context, t *topology.Compact, comms []mcf.Commodity) Bounds {
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

	weights := e.serverWeights(t)
	src := rng.New(e.seed).Split("estimate-bisection")
	for rs := 0; rs < bisectionRestarts; rs++ {
		side := randomBalancedSide(csr.N(), weights, src.SplitN("restart", rs))
		if b := e.cutBound(csr, side); b < upper {
			upper = b
			upperCert = fmt.Sprintf("server-balanced bisection cut (restart %d of %d, seed %d)",
				rs, bisectionRestarts, e.seed)
		}
	}
	if math.IsInf(upper, 1) {
		upperCert = "no demanding cut found"
	}
	return Bounds{
		Lower:     lower,
		Upper:     upper,
		LowerCert: "shortest-path routing scaled to worst arc overuse",
		UpperCert: upperCert,
	}
}
