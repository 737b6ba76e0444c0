package capsearch

import (
	"context"
	"testing"

	"jellyfish/internal/estimate"
	"jellyfish/internal/mcf"
	"jellyfish/internal/rng"
	"jellyfish/internal/topology"
)

func spreadEven(switches, ports, servers int, src *rng.Source) *topology.Topology {
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
	return topology.JellyfishHeterogeneous(portsPer, serversPer, src)
}

func testFamily(switches, ports int, seed uint64) *Family {
	base := spreadEven(switches, ports, switches, rng.New(seed))
	return NewFamily(base, rng.New(seed).Split("grow"))
}

// Family.At is a pure function of the server count: probing out of order
// must produce bit-identical topologies, and Assign prefixes must nest.
func TestFamilyPurity(t *testing.T) {
	f1 := testFamily(20, 8, 11)
	outOfOrder := f1.At(60)
	mid := f1.At(45)

	f2 := testFamily(20, 8, 11)
	direct := f2.At(45)
	de, me := direct.Graph.Edges(), mid.Graph.Edges()
	if len(de) != len(me) {
		t.Fatalf("edge counts differ: direct %d, after out-of-order %d", len(de), len(me))
	}
	for i := range de {
		if de[i] != me[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, de[i], me[i])
		}
	}
	if got, want := len(f1.Assign(60)), 60; got != want {
		t.Fatalf("Assign(60) has %d entries, want %d", got, want)
	}
	a60, a45 := f1.Assign(60), f2.Assign(45)
	for i := range a45 {
		if a60[i] != a45[i] {
			t.Fatalf("slot %d assignment differs across probe orders: %d vs %d", i, a60[i], a45[i])
		}
	}
	_ = outOfOrder
}

// The nested cyclic permutation: traffic at s+delta servers differs from
// traffic at s by O(delta) commodities — the property warm starts and
// cold solves both rely on for cross-probe instance continuity.
func TestCycleCommoditiesNested(t *testing.T) {
	f := testFamily(20, 8, 11)
	f.At(60)
	small := cycleCommodities(f.Assign(50), rng.New(5).SplitN("trial", 0))
	big := cycleCommodities(f.Assign(55), rng.New(5).SplitN("trial", 0))
	if len(small) != 50 || len(big) != 55 {
		t.Fatalf("commodity counts %d/%d, want 50/55", len(small), len(big))
	}
	changed := 0
	for j := range small {
		if small[j] != big[j] {
			changed++
		}
	}
	// Each of the 5 insertions rewires exactly one existing slot's
	// successor (destination switch may coincidentally stay equal).
	if changed > 5 {
		t.Fatalf("%d of the first 50 commodities changed across a 5-server delta, want ≤5", changed)
	}
}

// The search result must be identical for every worker count: the warm
// chains, probe sequence, and solver are all scheduling-independent.
func TestMaxServersWorkerInvariance(t *testing.T) {
	run := func(workers int) int {
		got, err := MaxServers(context.Background(), Config{
			Lo: 20, Hi: 20 * 7,
			Family:  testFamily(20, 8, 11),
			Traffic: rng.New(77),
			Trials:  2, Slack: 0.03, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	base := run(1)
	if base <= 0 {
		t.Fatalf("search returned %d on a healthy inventory", base)
	}
	for _, w := range []int{2, 4} {
		if got := run(w); got != base {
			t.Fatalf("workers=%d: result %d != serial result %d", w, got, base)
		}
	}
}

// Warm-start threading may change only how each probe's solve is seeded:
// every probe must solve the instance its (servers, trial) position names
// (Family.At(servers), permutation from Traffic.SplitN("trial", trial)),
// so re-solving that instance from scratch with mcf's nil-warm handle
// API gives a λ within the certificate tolerance, and a search that
// answers every probe from scratch agrees with the warm search within
// the solver's approximation at the boundary.
func TestWarmVsColdSameInstancesAndAgreement(t *testing.T) {
	const minServers, maxServers, trials, slack = 20, 20 * 7, 2, 0.03
	type probe struct {
		servers, trial int
	}
	fam := testFamily(20, 8, 11)
	traffic := rng.New(77)
	warmSeen := map[probe]float64{}
	debugProbe = func(servers, trial int, ok bool, st *mcf.State) {
		warmSeen[probe{servers, trial}] = st.Lambda
	}
	defer func() { debugProbe = nil }()
	warmRes, err := MaxServers(context.Background(), Config{
		Lo: minServers, Hi: maxServers,
		Family:  fam,
		Traffic: traffic,
		Trials:  trials, Slack: slack, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(warmSeen) == 0 {
		t.Fatal("the warm search recorded no probes")
	}

	// The from-scratch reference: one fresh handle and a nil warm state
	// per solve, so no probe can see another's lengths.
	coldSolve := func(servers, trial int) (bool, float64) {
		comms := cycleCommodities(fam.Assign(servers), traffic.SplitN("trial", trial))
		ok, st := mcf.NewSolver(mcf.Options{Workers: 1}).FeasibleAtFull(context.Background(), fam.At(servers).Graph, comms, slack, nil)
		return ok, st.Lambda
	}
	// Instance identity: λ values may differ only within the certificate
	// tolerance, and never reflect different traffic (a stream divergence
	// would produce unrelated λ).
	for k, warmLam := range warmSeen {
		_, coldLam := coldSolve(k.servers, k.trial)
		lo, hi := coldLam, warmLam
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo > 0 && (hi-lo)/hi > 0.12 {
			t.Fatalf("probe %+v: cold λ=%v vs warm λ=%v — instances diverged", k, coldLam, warmLam)
		}
	}

	// Agreement: bisect [minServers, maxServers] with from-scratch
	// probes, trials gated as in MaxServers; the answers may disagree
	// only by the solver's approximation at the boundary (a few percent
	// of the answer).
	coldFeasible := func(servers int) bool {
		for i := 0; i < trials; i++ {
			if ok, _ := coldSolve(servers, i); !ok {
				return false
			}
		}
		return true
	}
	coldRes := 0
	if coldFeasible(minServers) {
		a, b := minServers, maxServers
		if coldFeasible(maxServers) {
			a = maxServers
		}
		for a < b-1 {
			if mid := (a + b) / 2; coldFeasible(mid) {
				a = mid
			} else {
				b = mid
			}
		}
		coldRes = a
	}
	diff := coldRes - warmRes
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.05*float64(coldRes)+2 {
		t.Fatalf("warm result %d and cold result %d disagree beyond the approximation guarantee", warmRes, coldRes)
	}
}

// Estimator screening is reject-only: a screened search must return the
// same answer as the exact-only search for every estimator kind, because
// a trial is skipped only when the estimator's certified upper bound
// already proves the exact solver would reject it.
func TestMaxServersEstimatorIdentity(t *testing.T) {
	run := func(est estimate.ThroughputEstimator) (int, int) {
		probes := 0
		debugProbe = func(servers, trial int, ok bool, st *mcf.State) { probes++ }
		defer func() { debugProbe = nil }()
		got, err := MaxServers(context.Background(), Config{
			Lo: 20, Hi: 20 * 7,
			Family:  testFamily(20, 8, 11),
			Traffic: rng.New(77),
			Trials:  2, Slack: 0.03, Workers: 1,
			Estimator: est,
		})
		if err != nil {
			t.Fatal(err)
		}
		return got, probes
	}
	base, baseProbes := run(nil)
	if base <= 0 {
		t.Fatalf("exact-only search returned %d on a healthy inventory", base)
	}
	for _, kind := range estimate.Kinds() {
		est, err := estimate.New(kind, 16, 77)
		if err != nil {
			t.Fatal(err)
		}
		got, probes := run(est)
		if got != base {
			t.Fatalf("estimator %q: result %d != exact-only result %d", kind, got, base)
		}
		// Screening can only remove exact solves, never add them.
		if probes > baseProbes {
			t.Fatalf("estimator %q: %d exact probes > unscreened %d", kind, probes, baseProbes)
		}
		t.Logf("%s: %d exact probes (unscreened %d)", kind, probes, baseProbes)
	}
}

// An infeasible lower bracket returns 0 — the search never reports an
// unverified lo (the PR 2 regression, preserved across the rewrite).
func TestMaxServersInfeasibleLo(t *testing.T) {
	// 2-port switches: the network is a perfect matching, permutation
	// traffic across pairs is unroutable.
	base := spreadEven(4, 2, 4, rng.New(1))
	got, err := MaxServers(context.Background(), Config{
		Lo: 4, Hi: 4,
		Family:  NewFamily(base, rng.New(1).Split("grow")),
		Traffic: rng.New(2),
		Trials:  2, Slack: 0.03, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("search reported %d servers on a disconnected matching, want 0", got)
	}
}

// pollCtx is a context whose Err reports context.Canceled once it has
// been called more than after times.
type pollCtx struct {
	context.Context
	after, calls int
}

func (c *pollCtx) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// A context cancelled mid-search abandons it with the context's error
// — the cancellation path service jobs rely on. The cancel lands after
// a few polls so both the "cancel between trials" and the propagation
// through the bisection loop are exercised.
func TestMaxServersInterrupt(t *testing.T) {
	_, err := MaxServers(&pollCtx{Context: context.Background(), after: 3}, Config{
		Lo: 20, Hi: 20 * 7,
		Family:  testFamily(20, 8, 11),
		Traffic: rng.New(77),
		Trials:  2, Slack: 0.03, Workers: 1,
	})
	if err != context.Canceled {
		t.Fatalf("cancelled search returned err=%v, want context.Canceled", err)
	}
}
