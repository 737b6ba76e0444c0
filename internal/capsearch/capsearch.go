// Package capsearch drives the capacity searches behind the paper's
// headline numbers (Fig. 2(c), MaxServersAtFullThroughput): binary
// searches for the largest server count a switch inventory supports at
// full throughput under random-permutation traffic.
//
// Adjacent probes of such a search are made to solve *nearly identical*
// MCF instances, end to end:
//
//   - topologies come from an incremental Family — one canonical network
//     grown a server at a time, so adjacent probes share almost every
//     cable and every server keeps the switch it was placed on;
//   - traffic is a nested uniform random cyclic permutation over those
//     stable server slots — adding a server inserts it after a uniform
//     random predecessor, perturbing exactly one existing commodity;
//   - the flow solver warm-starts each probe from the previous probe's
//     solution, one state chain per trial, advanced in probe order, and
//     performs a marginal-quality primal restart inside each solve.
//
// Determinism is preserved by construction: the instance probed at a
// given server count, and the warm state used for it, are pure functions
// of the search position (probe sequence × trial index), never of worker
// scheduling. See DESIGN.md §9.
package capsearch

import (
	"context"
	"fmt"
	"math"

	"jellyfish/internal/estimate"
	"jellyfish/internal/faultinject"
	"jellyfish/internal/mcf"
	"jellyfish/internal/rng"
	"jellyfish/internal/topology"
	"jellyfish/internal/traffic"
)

// TrafficSeedOffset decorrelates a capacity search's traffic streams from
// its topology streams (the historical constant, kept so results are
// comparable across versions). Callers that build a Config by hand — the
// public CapacitySearch entry point and the planning service — must derive
// Traffic as rng.New(seed + TrafficSeedOffset) to probe the same instances.
const TrafficSeedOffset = 0x5f5e100

// A Family is a canonical incremental-topology family over server counts:
// At(servers) is the base topology grown one server at a time to the
// requested count, with the i-th server's randomness derived from the
// family source by the absolute index i. That makes At a pure function of
// its argument — probing 1080 before or after 900 yields bit-identical
// networks — while adjacent members differ by O(delta) links, which is
// what the solver's warm starts feed on.
//
// Ownership: a Family memoizes grown snapshots and is therefore NOT safe
// for concurrent use — confine each Family to one goroutine (the planning
// service pins one to its shard worker). Because At is pure by index,
// sharing a Family across sequential searches is bit-identical to
// rebuilding it per search, which is exactly what makes it a cacheable
// warm asset: reuse changes wall-clock, never results.
type Family struct {
	src    *rng.Source
	base   int
	assign []int // assign[j]: the switch hosting server slot j, by add order
	snaps  map[int]*topology.Topology
}

// NewFamily roots a family at base (the search's lower bracket). The base
// topology is retained and must not be mutated afterwards.
func NewFamily(base *topology.Topology, src *rng.Source) *Family {
	return &Family{
		src:    src,
		base:   base.NumServers(),
		assign: base.ServerSwitches(),
		snaps:  map[int]*topology.Topology{base.NumServers(): base},
	}
}

// At returns the family member with the given server count (≥ the base's).
// Members are cached at every requested count and shared: treat them as
// read-only. Panics if the inventory cannot host the requested servers —
// callers bound searches by the physical port capacity.
func (f *Family) At(servers int) *topology.Topology {
	if t, ok := f.snaps[servers]; ok {
		return t
	}
	if servers < f.base {
		panic(fmt.Sprintf("capsearch: %d servers below family base %d", servers, f.base))
	}
	// Grow a clone of the nearest materialized point below; per-step
	// randomness is indexed absolutely, so the result is independent of
	// which snapshot we start from.
	best := f.base
	//jellyvet:allow determinism -- max-reduction over keys; result independent of iteration order
	for s := range f.snaps {
		if s <= servers && s > best {
			best = s
		}
	}
	t := f.snaps[best].Clone()
	for i := best; i < servers; i++ {
		sw := topology.AddServerSpread(t, f.src.SplitN("srv", i))
		if sw < 0 {
			panic(fmt.Sprintf("capsearch: inventory full after %d of %d servers", i, servers))
		}
		if len(f.assign) == i {
			f.assign = append(f.assign, sw)
		}
	}
	f.snaps[servers] = t
	return t
}

// Assign returns the switch assignment of the first `servers` server
// slots (shared; read-only). Slots are stable: growing the family never
// moves an existing server, which is what keeps traffic endpoints — and
// so the solver's warm state — coherent across probes.
func (f *Family) Assign(servers int) []int {
	if len(f.assign) < servers {
		f.At(servers)
	}
	return f.assign[:servers]
}

// cycleCommodities builds the probe's traffic: a uniform random cyclic
// permutation over the server slots (traffic.CycleSuccessors — shared
// with the transport-level searches, which need the same nesting), so
// the permutation at s+1 servers extends the one at s with a single
// commodity rewired. Every server sends one unit toward its successor's
// switch — the paper's "each server sends at full rate to one other
// server" methodology; same-switch pairs are dropped by the solver like
// any permutation's. The stream is consumed strictly in slot order, so
// rebuilding per probe replays identical draws.
func cycleCommodities(assign []int, src *rng.Source) []mcf.Commodity {
	next := traffic.CycleSuccessors(len(assign), src)
	comms := make([]mcf.Commodity, 0, len(assign))
	for j := range assign {
		comms = append(comms, mcf.Commodity{Src: assign[j], Dst: assign[next[j]], Demand: 1})
	}
	return comms
}

// Config describes one capacity search.
type Config struct {
	// Lo and Hi bracket the search: Lo is the smallest candidate (the
	// search returns 0 if it is infeasible), Hi the largest (returned
	// directly if feasible).
	Lo, Hi int
	// Family provides the probed topologies and the stable server slots.
	Family *Family
	// Traffic is the root random source for traffic; trial i's cyclic
	// permutation is built from Traffic.SplitN("trial", i) at every
	// probe (pure in (servers, trial) by construction).
	Traffic *rng.Source
	// Trials is the number of independent permutations a probe must
	// support (all must pass). Trials run sequentially, gated on the
	// previous trial's result: an infeasible probe stops at its first
	// failing permutation, and — because trial results are deterministic
	// — the set of solves executed, and so every warm chain's contents,
	// is a pure function of the probe sequence.
	Trials int
	// Slack absorbs the solver's approximation tolerance (0.03 typical).
	Slack float64
	// Workers bounds the flow solver's CPU parallelism within each solve
	// (0 = all cores; the solver's fixed-batch sweeps keep results
	// bit-identical for every worker count). Trials themselves are
	// sequential — see Trials.
	Workers int
	// Estimator, when non-nil, screens each trial with certified bounds
	// before the exact solve: a trial whose estimator Upper bound falls
	// below 1-Slack is rejected without solving — answer-preserving
	// because the exact solver's λ ≤ λ* ≤ Upper < 1-Slack, so it would
	// have rejected too. Acceptances are NEVER taken from the estimator
	// (the exact solver's approximate λ could fall below a bound-certified
	// 1-Slack, which would flip answers vs. exact-only search); the final
	// bracket is always confirmed by exact solves. Estimators are not
	// safe for concurrent use — give each search its own.
	Estimator estimate.ThroughputEstimator
	// Probe, when non-nil, observes each completed feasibility probe in
	// execution order — the streaming-progress hook for service jobs.
	// The probe sequence is a deterministic function of the instance
	// (see MaxServers), so observers see identical (servers, feasible)
	// streams for identical searches. Probe must not mutate search
	// state; a cancelled probe is not observed.
	Probe func(servers int, feasible bool)
	// Obs, when non-nil, receives one-way instrumentation (probe/trial
	// spans and counts, with Obs.Solver threaded into every trial's
	// solver). It never influences the search; results are identical
	// with or without it. See capsearch.Obs.
	Obs *Obs
}

// MaxServers searches for the largest feasible server count in [Lo, Hi].
// Probe order is Lo, Hi, then prediction-guided bisection: a probe whose
// certificates bracket its own λ* tightly predicts where λ crosses
// 1-Slack (per-server capacity scales like links/servers along the
// family), and the next probe lands there instead of at the midpoint —
// near the boundary the prediction is accurate to a couple of servers,
// which removes most of the expensive near-boundary probes a plain
// bisection visits. Probes far from the boundary carry loose certificates
// and fall back to the midpoint, so the bracket always shrinks and the
// worst case stays a bisection. The probe sequence — and with it every
// warm chain — remains a deterministic function of the instance alone.
//
// ctx is polled between trial solves AND once per GK phase inside each
// solve (and inside the sampled-MCF estimator's screening solves when
// one is attached). Once ctx.Err() is non-nil the search is abandoned
// and MaxServers returns it; that is the only possible error, so a
// search under a never-cancelled context never fails. A cancel costs at
// most the GK phase in flight, and warm state stays coherent: truncated
// solver states are rejected by the warm-start maturity gate, and the
// search result is discarded outright.
func MaxServers(ctx context.Context, cfg Config) (int, error) {
	p := newProber(cfg)
	ok, err := p.feasible(ctx, cfg.Lo)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, nil
	}
	if cfg.Hi <= cfg.Lo {
		return cfg.Lo, nil
	}
	loGuess := p.predict()
	if ok, err = p.feasible(ctx, cfg.Hi); err != nil {
		return 0, err
	}
	if ok {
		return cfg.Hi, nil
	}
	lo, hi := cfg.Lo, cfg.Hi
	guess := loGuess // Hi probes are usually capacity-degenerate; prefer Lo's estimate
	if g := p.predict(); g > 0 {
		guess = g
	}
	for lo < hi-1 {
		next := guess
		if next <= lo || next >= hi {
			next = (lo + hi) / 2
		}
		if ok, err = p.feasible(ctx, next); err != nil {
			return 0, err
		}
		if ok {
			lo = next
		} else {
			hi = next
		}
		guess = p.predict()
	}
	return lo, nil
}

// prober evaluates feasibility probes, holding one solver handle and one
// warm chain per trial, plus the certificates of the most recent probe
// for the boundary prediction.
type prober struct {
	cfg     Config
	solvers []*mcf.Solver
	states  []*mcf.State
	last    probeStats
}

// probeStats summarizes a probe for prediction: the binding (minimum)
// certificates over its executed trials, and the probed topology's size.
type probeStats struct {
	servers, links int
	lb, ub         float64
}

func newProber(cfg Config) *prober {
	opt := mcf.Options{Workers: cfg.Workers, Obs: cfg.Obs.solverObs()}
	p := &prober{
		cfg:     cfg,
		solvers: make([]*mcf.Solver, cfg.Trials),
		states:  make([]*mcf.State, cfg.Trials),
	}
	for i := range p.solvers {
		p.solvers[i] = mcf.NewSolver(opt)
	}
	return p
}

func (p *prober) feasible(ctx context.Context, servers int) (bool, error) {
	top := p.cfg.Family.At(servers)
	assign := p.cfg.Family.Assign(servers)
	obsT := p.cfg.Obs.probeBegin(servers)
	defer p.cfg.Obs.probeEnd(obsT)
	p.last = probeStats{servers: servers, links: top.NumLinks(), lb: math.Inf(1), ub: math.Inf(1)}
	for i := 0; i < p.cfg.Trials; i++ {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		ok := p.trial(ctx, i, top, assign)
		// ctx also threads into the trial's solver (one poll per GK
		// phase). A truncated solve returns sound but premature
		// certificates — feasible traffic could read as infeasible — so
		// re-poll before trusting the verdict: a cancel discards the
		// tainted trial instead of misreading it.
		if err := ctx.Err(); err != nil {
			return false, err
		}
		if !ok {
			p.observe(servers, false)
			return false, nil
		}
	}
	p.observe(servers, true)
	return true, nil
}

func (p *prober) observe(servers int, feasible bool) {
	if p.cfg.Probe != nil {
		p.cfg.Probe(servers, feasible)
	}
}

// predictGapMax bounds how loose a probe's certificates may be for its λ
// estimate to steer the search: beyond a 35% bracket the extrapolation is
// worse than bisecting.
const predictGapMax = 1.35

// predict estimates the server count at which the binding trial's λ
// crosses 1-Slack, extrapolated from the most recent probe's certificates.
// Along the family, per-server capacity scales like links(s)/s and each
// added server costs half a link, so with λ̂ the probe's midpoint estimate,
//
//	λ(s*) ≈ λ̂ · (L − (s*−s)/2)/L · s/s*  =  1 − Slack
//
// solves in closed form. Returns 0 when the certificates are too loose
// (far-from-boundary or degenerate probes), which falls back to bisection.
func (p *prober) predict() int {
	st := p.last
	if st.servers == 0 || st.lb <= 0 || math.IsInf(st.ub, 1) || st.ub > predictGapMax*st.lb {
		return 0
	}
	lam := (st.lb + st.ub) / 2
	t := 1 - p.cfg.Slack
	L := float64(st.links)
	s := float64(st.servers)
	den := t*L + lam*s/2
	if den <= 0 {
		return 0
	}
	return int(lam * s * (L + s/2) / den)
}

// trial advances trial i's chain through the probe at the given topology,
// reporting whether the permutation is supported at full rate.
func (p *prober) trial(ctx context.Context, i int, top *topology.Topology, assign []int) bool {
	if faultinject.Enabled() {
		// Chaos hook for the panic-containment suite: the trial boundary
		// is where a mid-probe kernel panic is injected (the panic shape;
		// error shapes are meaningless here and ignored).
		_ = faultinject.Fire("capsearch.trial")
	}
	p.cfg.Obs.trialBegin(i)
	defer p.cfg.Obs.trialEnd()
	comms := cycleCommodities(assign, p.cfg.Traffic.SplitN("trial", i))
	if p.cfg.Estimator != nil {
		b := p.cfg.Estimator.Estimate(ctx, top.Compact(), comms)
		if b.Upper < 1-p.cfg.Slack {
			// Certified rejection: feed the estimator's bracket to the
			// boundary predictor (the exact certificates it replaces) and
			// skip the solve. Trial i's warm chain simply doesn't advance
			// here; chains remain pure functions of the probe sequence.
			p.last.lb = math.Min(p.last.lb, b.Lower)
			p.last.ub = math.Min(p.last.ub, b.Upper)
			return false
		}
	}
	ok, st := p.solvers[i].FeasibleAtFull(ctx, top.Graph, comms, p.cfg.Slack, p.states[i])
	if debugProbe != nil {
		debugProbe(len(assign), i, ok, st)
	}
	p.states[i] = st
	if st != nil {
		p.last.lb = math.Min(p.last.lb, st.Lambda)
		p.last.ub = math.Min(p.last.ub, st.UpperBound)
	}
	return ok
}

// debugProbe, when set, observes every trial solve (diagnostics only).
var debugProbe func(servers, trial int, ok bool, st *mcf.State)
