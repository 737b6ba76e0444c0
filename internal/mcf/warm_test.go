package mcf

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"jellyfish/internal/graph"
)

// regularish builds a connected random graph with n vertices and roughly
// n*deg/2 edges (ring backbone + random chords), deterministic per seed.
func regularish(n, deg int, seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	for g.M() < n*deg/2 {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

func permComms(n int, demand float64, seed int64) []Commodity {
	r := rand.New(rand.NewSource(seed))
	var comms []Commodity
	for i, p := range r.Perm(n) {
		if i != p {
			comms = append(comms, Commodity{i, p, demand})
		}
	}
	return comms
}

// assertAgree checks that two results on the same instance agree within
// the solver's approximation guarantee: each carries certificates
// bracketing the true optimum, so the intervals must overlap and the
// primal values can differ by at most the certified gaps.
func assertAgree(t *testing.T, a, b Result) {
	t.Helper()
	if a.Lambda > a.UpperBound+1e-9 || b.Lambda > b.UpperBound+1e-9 {
		t.Fatalf("certificates inverted: a=[%v,%v] b=[%v,%v]", a.Lambda, a.UpperBound, b.Lambda, b.UpperBound)
	}
	if a.Lambda > b.UpperBound+1e-9 || b.Lambda > a.UpperBound+1e-9 {
		t.Fatalf("certificate intervals disjoint: a=[%v,%v] b=[%v,%v]", a.Lambda, a.UpperBound, b.Lambda, b.UpperBound)
	}
}

// A warm re-solve of the same instance must agree with the cold solve and
// converge in far fewer phases — the core warm-start claim.
func TestWarmResolveSameInstance(t *testing.T) {
	g := regularish(40, 8, 1)
	comms := permComms(40, 2, 2)
	sv := NewSolver(Options{Workers: 1})
	cold, st := sv.Solve(context.Background(), g, comms, nil)
	warm, _ := sv.Solve(context.Background(), g, comms, st)
	assertAgree(t, cold, warm)
	if warm.Phases >= cold.Phases {
		t.Fatalf("warm re-solve took %d phases, cold took %d — no speedup", warm.Phases, cold.Phases)
	}
}

// Warm-starting across a perturbed commodity set (same graph, different
// permutation) must agree with a cold solve of the perturbed instance
// within the approximation guarantee.
func TestWarmAcrossCommodityPerturbation(t *testing.T) {
	g := regularish(40, 8, 1)
	c1 := permComms(40, 2, 2)
	c2 := permComms(40, 2, 3)
	coldRef := MaxConcurrentFlow(context.Background(), g, c2, Options{Workers: 1})
	sv := NewSolver(Options{Workers: 1})
	_, st := sv.Solve(context.Background(), g, c1, nil)
	warm, _ := sv.Solve(context.Background(), g, c2, st)
	assertAgree(t, coldRef, warm)
	// The warm primal may not fall below the cold one by more than the
	// guarantee: both bracket the same optimum λ*.
	if warm.Lambda < coldRef.Lambda*(1-2*0.05)-1e-9 {
		t.Fatalf("warm λ=%v more than 2·Tol below cold λ=%v", warm.Lambda, coldRef.Lambda)
	}
}

// Warm-starting across a topology perturbation (a few links removed, as
// in failure sweeps) must agree with the cold solve of the new topology.
func TestWarmAcrossTopologyPerturbation(t *testing.T) {
	g := regularish(40, 8, 1)
	comms := permComms(40, 2, 2)
	sv := NewSolver(Options{Workers: 1})
	_, st := sv.Solve(context.Background(), g, comms, nil)

	g2 := g.Clone()
	edges := g2.Edges()
	for i := 0; i < 4; i++ {
		g2.RemoveEdge(edges[i*7].U, edges[i*7].V)
	}
	coldRef := MaxConcurrentFlow(context.Background(), g2, comms, Options{Workers: 1})
	warm, _ := sv.Solve(context.Background(), g2, comms, st)
	assertAgree(t, coldRef, warm)
}

// A warm state from an unrelated topology must be refused: the solve
// falls back to a cold start, bit-identical to the same handle solving
// with no warm state at all.
func TestWarmFallbackOnUnrelatedTopology(t *testing.T) {
	g := regularish(40, 8, 1)
	other := regularish(40, 8, 99) // different chords: overlap well below 50%
	comms := permComms(40, 2, 2)

	svA := NewSolver(Options{Workers: 1})
	_, stOther := svA.Solve(context.Background(), other, permComms(40, 2, 5), nil)

	svB := NewSolver(Options{Workers: 1})
	ref, _ := svB.Solve(context.Background(), g, comms, nil)
	svC := NewSolver(Options{Workers: 1})
	got, _ := svC.Solve(context.Background(), g, comms, stOther)
	if got.Lambda != ref.Lambda || got.UpperBound != ref.UpperBound || got.Phases != ref.Phases {
		t.Fatalf("unrelated warm state changed the solve: got (λ=%v ub=%v ph=%d), want (λ=%v ub=%v ph=%d)",
			got.Lambda, got.UpperBound, got.Phases, ref.Lambda, ref.UpperBound, ref.Phases)
	}
	for i := range ref.ArcFlow {
		if got.ArcFlow[i] != ref.ArcFlow[i] {
			t.Fatalf("arc %d flow %v != %v after refused warm seed", i, got.ArcFlow[i], ref.ArcFlow[i])
		}
	}
}

// A warm state from a truncated (unconverged) run must be refused too:
// immature seeds measurably slow the next solve down, so the maturity
// rule falls back to cold.
func TestWarmSeedRefusedWhenImmature(t *testing.T) {
	g := regularish(40, 8, 1)
	comms := permComms(40, 2, 2)

	// An early-accepted feasibility probe exits long before the gap
	// closes: its state must be immature (demand far below capacity).
	svA := NewSolver(Options{Workers: 1})
	ok, st := svA.FeasibleAtFull(context.Background(), g, permComms(40, 0.2, 5), 0.03, nil)
	if !ok {
		t.Fatal("setup: lightly loaded instance must be feasible")
	}
	if gap := (st.UpperBound - st.Lambda) / st.UpperBound; gap <= 0.05 {
		t.Skipf("setup produced a converged state (gap %v); cannot exercise the maturity rule", gap)
	}

	svB := NewSolver(Options{Workers: 1})
	ref, _ := svB.Solve(context.Background(), g, comms, nil)
	svC := NewSolver(Options{Workers: 1})
	got, _ := svC.Solve(context.Background(), g, comms, st)
	if got.Lambda != ref.Lambda || got.UpperBound != ref.UpperBound || got.Phases != ref.Phases {
		t.Fatalf("immature warm state was not refused: got (λ=%v ph=%d), want (λ=%v ph=%d)",
			got.Lambda, got.Phases, ref.Lambda, ref.Phases)
	}
}

// A chain of warm-started solves must be bit-identical for every worker
// count: warm state is a pure function of the chain position.
func TestWarmChainWorkerInvariance(t *testing.T) {
	g := regularish(48, 8, 7)
	chain := [][]Commodity{permComms(48, 2, 1), permComms(48, 2, 2), permComms(48, 2, 3)}

	run := func(workers int) []Result {
		sv := NewSolver(Options{Workers: workers})
		var st *State
		var out []Result
		for _, comms := range chain {
			var res Result
			res, st = sv.Solve(context.Background(), g, comms, st)
			out = append(out, res)
		}
		return out
	}
	base := run(1)
	for _, w := range []int{2, 8} {
		got := run(w)
		for i := range base {
			if got[i].Lambda != base[i].Lambda || got[i].UpperBound != base[i].UpperBound || got[i].Phases != base[i].Phases {
				t.Fatalf("workers=%d link %d: (λ=%v ub=%v ph=%d) != serial (λ=%v ub=%v ph=%d)",
					w, i, got[i].Lambda, got[i].UpperBound, got[i].Phases,
					base[i].Lambda, base[i].UpperBound, base[i].Phases)
			}
			for a := range base[i].ArcFlow {
				if got[i].ArcFlow[a] != base[i].ArcFlow[a] {
					t.Fatalf("workers=%d link %d: arc %d flow differs", w, i, a)
				}
			}
		}
	}
}

// Degenerate chain links (no effective commodities) pass the incoming
// state through so the chain is not broken.
func TestWarmChainSurvivesDegenerateLink(t *testing.T) {
	g := regularish(40, 8, 1)
	sv := NewSolver(Options{Workers: 1})
	_, st := sv.Solve(context.Background(), g, permComms(40, 2, 2), nil)
	res, st2 := sv.Solve(context.Background(), g, []Commodity{{3, 3, 1}}, st)
	if !math.IsInf(res.Lambda, 1) {
		t.Fatalf("degenerate instance λ=%v, want +Inf", res.Lambda)
	}
	if st2 != st {
		t.Fatal("degenerate link did not pass the warm state through")
	}
	if len(st.edges) != g.M() {
		t.Fatalf("state covers %d edges, want %d", len(st.edges), g.M())
	}
}

// Result.ArcFlow must witness Result.Lambda even in restart-capable
// handle runs, where the live flow can be discarded after the best
// certificate was taken: the returned flow, pushed through the returned
// λ's definition (routed rounds / overuse), must certify at least Lambda
// and respect capacity.
func TestHandleArcFlowCertifiesLambda(t *testing.T) {
	g := regularish(40, 8, 1)
	for _, seed := range []int64{2, 3, 4} {
		comms := permComms(40, 2, seed)
		sv := NewSolver(Options{Workers: 1})
		res, _ := sv.Solve(context.Background(), g, comms, nil)
		total := 0.0
		for i, f := range res.ArcFlow {
			if f > 1+1e-9 {
				t.Fatalf("seed %d: arc %d flow %v exceeds capacity", seed, i, f)
			}
			total += f
		}
		// A flow shipping λ·demand for every commodity crosses at least
		// one arc per shipped unit, so its total arc volume is ≥ λ·Σd.
		demSum := 0.0
		for _, c := range comms {
			demSum += c.Demand
		}
		if total < res.Lambda*demSum*(1-1e-9) {
			t.Fatalf("seed %d: ArcFlow volume %v cannot witness λ=%v over demand %v (dropped or mis-scaled flow)",
				seed, total, res.Lambda, demSum)
		}
	}
}

// The handle must keep results identical to the package-level entry point
// semantics on a fresh (cold) solve for the certificates' sake, and its
// state snapshots must be immutable: re-solving through the handle must
// not corrupt a previously returned state.
func TestStateImmutableAcrossHandleReuse(t *testing.T) {
	g := regularish(40, 8, 1)
	c1 := permComms(40, 2, 2)
	c2 := permComms(40, 2, 3)
	sv := NewSolver(Options{Workers: 1})
	_, st1 := sv.Solve(context.Background(), g, c1, nil)
	snapshot := append([]float64(nil), st1.length...)
	_, _ = sv.Solve(context.Background(), g, c2, st1)
	for i := range snapshot {
		if st1.length[i] != snapshot[i] {
			t.Fatal("handle reuse mutated a previously returned State")
		}
	}
}
