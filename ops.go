package jellyfish

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"

	"jellyfish/internal/graph"
	"jellyfish/internal/mcf"
	"jellyfish/internal/placement"
	"jellyfish/internal/rng"
	"jellyfish/internal/topology"
	"jellyfish/internal/traffic"
)

// Operational tooling: blueprints, rewiring plans, miswiring handling, and
// structural health checks — the §6 deployment story as an API.

// Edge is an undirected switch-switch cable (U < V).
type Edge = graph.Edge

// WriteBlueprint serializes the topology's construction blueprint (JSON):
// per-switch port budgets, server counts, and the cable list handed to the
// cabling crew.
func WriteBlueprint(t *Topology, w io.Writer) error { return t.WriteBlueprint(w) }

// ReadBlueprint loads a topology from a blueprint, validating port budgets
// and graph simplicity. It reads r to EOF and decodes the first JSON
// document in what it read; bytes after that document are ignored.
func ReadBlueprint(r io.Reader) (*Topology, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("topology: decoding blueprint: %w", err)
	}
	return topology.ParseBlueprint(data)
}

// RewirePlan lists cable operations turning one topology into another.
type RewirePlan = topology.RewirePlan

// PlanRewiring diffs two topologies' cable sets — the §4.2/§6.2 promise
// that expansion rewiring "can be automatically identified".
func PlanRewiring(before, after *Topology) RewirePlan {
	return topology.PlanRewiring(before, after)
}

// Miswiring is one blueprint/as-built divergence.
type Miswiring = placement.Miswiring

// SimulateMiswirings applies `count` random cable-endpoint swaps in place
// (a careless cabling crew), returning how many were applied.
func SimulateMiswirings(t *Topology, count int, seed uint64) int {
	return placement.ApplyRandomMiswirings(t, count, rng.New(seed))
}

// DetectMiswirings compares an as-built network against its blueprint, as
// a link-layer discovery sweep would (§6.1).
func DetectMiswirings(blueprint, built *Topology) []Miswiring {
	return placement.DetectMiswirings(blueprint, built)
}

// EdgeConnectivity returns the minimum number of link failures that can
// disconnect the network. For Jellyfish this is almost surely the network
// degree r (§4.3).
func EdgeConnectivity(t *Topology) int { return graph.EdgeConnectivity(t.Graph) }

// ExpansionQuality reports the second adjacency eigenvalue of an r-regular
// topology together with the Ramanujan optimum 2√(r−1): the closer the
// two, the better an expander — and the better the capacity — the graph
// is. Panics if the switch graph is not r-regular.
func ExpansionQuality(t *Topology, r int) (lambda2, optimum float64) {
	return t.Graph.SecondEigenvalue(r, 0), graph.RamanujanBound(r)
}

// CriticalLinks returns the cables whose single failure would disconnect
// some pair of switches. A healthy Jellyfish has none (it is r-connected);
// after heavy failures this is the repair-priority list.
func CriticalLinks(t *Topology) []Edge { return t.Graph.Bridges() }

// A WhatIfEvaluator scores sequences of related what-if scenarios —
// failures, repairs, expansions, re-balancing — with optimal-routing
// throughput, warm-starting each evaluation from the previous scenario's
// flow-solver solution (DESIGN.md §9). Scenario sequences an operator
// explores are exactly the related-instance chains the incremental solver
// feeds on: each step perturbs a few cables or a few commodities, so most
// of the converged solver state carries over. Evaluations through one
// handle are deterministic: the same scenario sequence yields the same
// numbers on any worker count, and every number carries the solver's
// usual primal/dual accuracy guarantee.
//
// A WhatIfEvaluator enforces a single-evaluation-at-a-time contract:
// concurrent calls would interleave the warm chain in scheduling order,
// silently destroying the determinism guarantee above, so overlapping
// calls panic instead (an atomic guard, cheap enough to always be on).
// Sequential use from different goroutines is safe — the guard's
// acquire/release pair publishes the carried state across the handoff —
// which is exactly how the planning service drives one evaluator per
// shard worker. For independent concurrent sequences, use one evaluator
// each.
type WhatIfEvaluator struct {
	sv   *mcf.Solver
	st   *mcf.State
	srv  []int // server→switch scratch; the busy guard serializes access
	busy atomic.Bool
}

// NewWhatIfEvaluator returns a reusable evaluator. workers bounds the
// flow solver's CPU parallelism per evaluation (0 = all cores).
func NewWhatIfEvaluator(workers int) *WhatIfEvaluator {
	return &WhatIfEvaluator{sv: mcf.NewSolver(mcf.Options{Workers: workers})}
}

// OptimalThroughput is jellyfish.OptimalThroughput evaluated through the
// handle: identical traffic derivation and accuracy, but warm-started
// from the previous evaluation when the topologies are related (an
// unrelated topology falls back to a cold solve automatically).
//
// Panics if another evaluation is in flight on the same evaluator (see
// the type's concurrency contract).
func (e *WhatIfEvaluator) OptimalThroughput(t *Topology, seed uint64) float64 {
	return e.OptimalThroughputContext(context.Background(), t, seed)
}

// OptimalThroughputContext is OptimalThroughput with cancellation: ctx
// is polled once per Garg–Könemann phase of the flow solver. A cancel
// truncates the evaluation in flight — callers that cancel must discard
// that value and must NOT checkpoint the evaluator's state (the
// truncated state would poison later warm resumes; the solver's own
// maturity gate rejects it on seeding, but a checkpoint cache keyed as
// "converged" has no such gate). Under a never-cancelled context the
// value is byte-identical to OptimalThroughput.
func (e *WhatIfEvaluator) OptimalThroughputContext(ctx context.Context, t *Topology, seed uint64) float64 {
	e.acquire("OptimalThroughput")
	defer e.busy.Store(false)
	e.srv = t.ServerSwitchesInto(e.srv)
	pat := traffic.RandomPermutation(e.srv, rng.New(seed).Split("traffic"))
	var res mcf.Result
	res, e.st = e.sv.Solve(ctx, t.Graph, pat.Commodities(), e.st)
	return res.Throughput()
}

// Reset drops the carried solver state, forcing the next evaluation to
// start cold (useful when switching to an unrelated network, though the
// solver's own overlap check would catch that too).
func (e *WhatIfEvaluator) Reset() {
	e.acquire("Reset")
	defer e.busy.Store(false)
	e.st = nil
}

// State returns the warm snapshot carried from the last evaluation (nil
// before any). mcf.State values are immutable, so the snapshot may be
// cached and shared freely — the planning service checkpoints scenario
// chains this way, keyed by the deterministic chain position that
// produced them (DESIGN.md §10).
func (e *WhatIfEvaluator) State() *mcf.State {
	e.acquire("State")
	defer e.busy.Store(false)
	return e.st
}

// SetState installs a warm snapshot as if the evaluator's previous
// evaluation had produced it, so a chain can resume from a cached
// checkpoint. Evaluations after SetState(st) are bit-identical to
// evaluations after the sequence that produced st — that equivalence is
// what lets a service cache chain prefixes without changing any response.
func (e *WhatIfEvaluator) SetState(st *mcf.State) {
	e.acquire("SetState")
	defer e.busy.Store(false)
	e.st = st
}

// acquire takes the single-evaluation guard or panics. The matching
// release is an atomic store, so sequential cross-goroutine use observes
// a consistent chain (the acquire/release pair is the synchronization).
func (e *WhatIfEvaluator) acquire(op string) {
	if !e.busy.CompareAndSwap(false, true) {
		panic("jellyfish: concurrent " + op + " on a WhatIfEvaluator; use one evaluator per concurrent sequence (see the type's contract)")
	}
}
