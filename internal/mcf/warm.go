package mcf

import (
	"context"
	"math"

	"jellyfish/internal/graph"
)

// This file is the incremental / warm-started solving layer (DESIGN.md §9).
//
// Capacity searches and sweeps solve sequences of *related* MCF instances:
// adjacent points of a binary search share almost the whole topology and
// most of the traffic structure, so the length function Garg–Könemann
// converged to at one point is a near-converged starting point for the
// next. A Solver is a reusable handle that carries that state between
// Solve calls, and a State is the explicit, immutable snapshot callers
// thread through their own search order.
//
// Correctness never depends on the seed. Both certificates are
// self-validating — the primal bound holds for any accumulated flow, the
// dual bound for any positive length function — so a warm start can only
// change how fast the primal/dual gap closes, never what a closed gap
// means. A bad seed costs phases; it cannot produce a wrong answer.

// warmMinOverlap is the topological half of the warm-start invalidation
// rule: a seed is used only if the shared fraction of the edge sets
// (against the larger of the two) is at least this. Below it, the carried
// lengths describe mostly-missing topology and a cold start converges
// faster than un-learning them.
const warmMinOverlap = 0.5

// The maturity half of the invalidation rule: a seed is used only if the
// solve that produced it actually converged — closed its certificate gap
// to the solver's Tol. A length function from a truncated run (an
// early-accepted feasibility probe, say) is matured for neither instance;
// measured on the capacity searches, such seeds slow the next solve down,
// while converged seeds (full solves, gap-exit rejections) speed it up.
// The tolerance check happens in seedWarm against the receiving solver's
// Tol (producer and consumer share options in every chain).

// warmStartVolume is the normalized total length volume a warm seed is
// rescaled to. The dual bound is scale-invariant, so only phase dynamics
// care: starting near the canonical termination volume (~1) lets the
// loose volume-based exit fire as soon as the gap closes, while leaving
// room for a few dozen phases of multiplicative growth so the primal can
// accumulate routed rounds first.
const warmStartVolume = 0.25

// restartWindow and restartMargin parameterize the primal restart of
// Solver-handle runs (see run): every restartWindow phases the marginal
// routing quality is compared with the certified average, and the
// accumulated flow is dropped when the margin is exceeded. The window
// matches a handful of dual-refresh periods so the marginal estimate is
// stable; the margin is high enough that a restart only fires while the
// burn-in still dominates the average.
const (
	restartWindow = 16
	restartMargin = 1.15
)

// A State is an immutable warm-start snapshot taken after a solve: the
// final GK length function keyed by the edge list it was computed on,
// plus the certificates of the producing solve. States are pure values —
// threading one into a later Solve on a related instance seeds the
// solver; the State itself is never mutated, so a search can hold many
// and re-use them in any deterministic order.
type State struct {
	edges  []graph.Edge
	length []float64 // per arc, indexed 2*i / 2*i+1 over edges

	// Lambda and UpperBound are the certificates of the solve that
	// produced this state (diagnostics; not used for seeding).
	Lambda, UpperBound float64
}

// A Solver is a reusable handle for solving sequences of related
// instances. It keeps every internal array — CSR arc arrays, Dijkstra
// scratch, commodity grouping — between Solve calls, rebuilding each
// piece only when the instance actually changed it: a re-solve on the
// same graph does no topology work at all, and a small topology delta
// (servers added, links failed) rewrites the arc arrays in place instead
// of reallocating them.
//
// A Solver is NOT safe for concurrent use; use one handle per chain
// (e.g. one per trial in a capacity search).
type Solver struct {
	opt Options
	s   solver
}

// NewSolver returns a reusable solving handle with the given options.
// Options.Workers applies to every solve made through the handle.
func NewSolver(opt Options) *Solver {
	return &Solver{opt: opt.withDefaults()}
}

// Solve computes the maximum concurrent flow for the instance, optionally
// warm-started from a State produced by a previous solve on a related
// instance (same or mildly perturbed graph, any commodity set). A nil
// warm — or a warm whose topology overlaps the instance by less than
// warmMinOverlap — falls back to a cold start; the result is then
// bit-identical to MaxConcurrentFlow with the same Options.
//
// The returned State snapshots this solve for the next point in the
// chain. Like MaxConcurrentFlow, an instance with no effective
// commodities yields Lambda = +Inf; the input warm state is passed
// through unchanged so a degenerate point never breaks a chain.
//
// ctx is polled once per GK phase, as in MaxConcurrentFlow. Callers that
// cancel a solve must discard its Result and State; the warm-start
// maturity gate would reject the truncated State anyway, so a chain
// cannot be poisoned by one.
func (sv *Solver) Solve(ctx context.Context, g *graph.Graph, comms []Commodity, warm *State) (Result, *State) {
	return sv.solve(ctx, g, comms, warm, 0, 0)
}

// FeasibleAtFull is the warm-started analogue of the package-level
// FeasibleAtFull: it reports whether all commodities can be routed at
// full demand (λ ≥ 1-slack), using certificates to answer early in
// either direction, and returns the warm snapshot for the next probe.
// ctx is polled as in Solve.
func (sv *Solver) FeasibleAtFull(ctx context.Context, g *graph.Graph, comms []Commodity, slack float64, warm *State) (bool, *State) {
	res, st := sv.solve(ctx, g, comms, warm, 1-slack, 1-slack)
	return res.Lambda >= 1-slack, st
}

func (sv *Solver) solve(ctx context.Context, g *graph.Graph, comms []Commodity, warm *State, accept, reject float64) (Result, *State) {
	if !sv.s.init(g.CSR(), comms, sv.opt) {
		return Result{Lambda: math.Inf(1), UpperBound: math.Inf(1)}, warm
	}
	sv.s.restart = true
	sv.s.earlyAccept, sv.s.earlyReject = accept, reject
	sv.s.seedWarm(warm) // after the thresholds: the maturity gate reads them
	res := sv.s.run(ctx)
	st := &State{
		edges:      sv.s.edges,
		length:     append([]float64(nil), sv.s.length...),
		Lambda:     res.Lambda,
		UpperBound: res.UpperBound,
	}
	return res, st
}

// seedWarm overwrites the cold initial lengths with the lengths carried
// in st, matched edge-by-edge between the two (sorted) edge lists: shared
// edges keep their converged lengths, edges new to this instance start at
// the minimum shared length (attractive enough to be explored, and
// multiplicative updates correct an underestimate within a few routings).
// The seeded function is rescaled to warmStartVolume; scaling cancels in
// the dual bound, so relative structure is all that is carried — which
// also makes seeds portable across LinkCapacity changes.
//
// Falls back (returns false, cold lengths intact) when st is nil or
// immature (certificate gap above warmMaxSeedGap), overlaps the instance
// by less than warmMinOverlap, or carries degenerate lengths.
func (s *solver) seedWarm(st *State) bool {
	if st == nil || len(st.edges) == 0 || len(s.edges) == 0 {
		return false
	}
	// Maturity: the gate matches the receiving run's own convergence
	// target — Tol for feasibility runs (whose early-accepted neighbors
	// produce looser, measurably harmful seeds), the canonical 2·Tol for
	// plain solves (whose loose-exit states are the chain's lifeblood).
	maxGap := 2 * s.opt.Tol
	if s.earlyAccept > 0 {
		maxGap = s.opt.Tol
	}
	if !(st.UpperBound > 0) || math.IsInf(st.UpperBound, 1) ||
		(st.UpperBound-st.Lambda)/st.UpperBound > maxGap+1e-12 {
		return false
	}
	// First walk: count shared edges to apply the invalidation rule
	// before touching any state.
	shared := 0
	i, j := 0, 0
	for i < len(s.edges) && j < len(st.edges) {
		switch {
		case s.edges[i] == st.edges[j]:
			shared++
			i++
			j++
		case edgeLess(s.edges[i], st.edges[j]):
			i++
		default:
			j++
		}
	}
	if float64(shared) < warmMinOverlap*float64(max(len(s.edges), len(st.edges))) {
		return false
	}
	// Second walk: install shared lengths, mark new arcs, track the
	// minimum shared length for filling them.
	minL := math.Inf(1)
	i, j = 0, 0
	for i < len(s.edges) {
		switch {
		case j < len(st.edges) && s.edges[i] == st.edges[j]:
			l0, l1 := st.length[2*j], st.length[2*j+1]
			s.length[2*i], s.length[2*i+1] = l0, l1
			minL = min(minL, l0, l1)
			i++
			j++
		case j < len(st.edges) && !edgeLess(s.edges[i], st.edges[j]):
			j++
		default:
			s.length[2*i], s.length[2*i+1] = -1, -1 // marker: new arc
			i++
		}
	}
	if minL <= 0 || math.IsInf(minL, 1) || math.IsNaN(minL) {
		s.resetLengthsCold() // degenerate carried lengths: refuse the seed
		return false
	}
	for a := range s.length {
		if s.length[a] < 0 {
			s.length[a] = minL
		}
	}
	vol := s.volume()
	if vol <= 0 || math.IsInf(vol, 1) || math.IsNaN(vol) {
		s.resetLengthsCold()
		return false
	}
	scale := warmStartVolume / vol
	for a := range s.length {
		s.length[a] *= scale
	}
	s.warmed = true
	return true
}

func edgeLess(a, b graph.Edge) bool {
	return a.U < b.U || (a.U == b.U && a.V < b.V)
}
