// Package jellyfish is a from-scratch Go implementation of the Jellyfish
// data-center interconnect (Singla, Hong, Popa & Godfrey, "Jellyfish:
// Networking Data Centers Randomly", NSDI 2012) together with everything
// needed to evaluate it: the fat-tree and Small-World-Datacenter comparison
// topologies, degree-diameter benchmark graphs, optimal-routing throughput
// via maximum concurrent flow, ECMP and k-shortest-path route tables, a
// flow-level TCP/MPTCP simulator, bisection-bandwidth analysis, budgeted
// incremental-expansion arcs, and physical layout / cabling models.
//
// # Quick start
//
// The module path is "jellyfish"; build everything with `go build ./...`
// from the repository root.
//
//	net := jellyfish.New(jellyfish.Config{Switches: 100, Ports: 24, NetworkDegree: 12, Seed: 1})
//	fmt.Println(net.NumServers())            // 1200
//	stats := net.PathStats()                 // switch-to-switch path lengths
//	lambda := jellyfish.OptimalThroughput(net, 1) // normalized throughput ∈ [0,1]
//
// The topology object returned everywhere is *Topology (an alias of the
// internal representation); it exposes the switch graph, per-switch port
// budgets and server counts, and is accepted by every evaluator in this
// package.
//
// # Parallel evaluation
//
// The evaluation stack is parallel end to end, built on the bounded
// worker pool in internal/parallel: independent experiment trials and
// sweep points fan out in internal/experiments (the Workers field on
// experiments.Options, surfaced as -workers on cmd/experiments), route
// tables build one source per task in internal/routing, and the
// concurrent-flow solver batches its per-source shortest-path sweeps in
// internal/mcf (mcf.Options.Workers). Evaluators in this package take an
// optional trailing worker count — OptimalThroughput(net, seed, 4) —
// surfaced as -workers on cmd/jellyfish. Everywhere, 0 means all cores
// and 1 means serial, and results are bit-identical for every worker
// count: per-task random streams are derived from the root seed by
// stable index, never from a shared stream consumed in completion order,
// and stateful hot paths reuse per-worker scratch (parallel.ForEachWorker)
// that is generation-stamped so leftover state can never leak into
// results. The flow solver's kernel — the sweep behind every capacity
// number — runs with zero steady-state allocations (DESIGN.md §5;
// measured trajectory in BENCH_mcf.json).
//
// # Incremental solving
//
// Capacity searches and sweeps solve sequences of nearly identical flow
// instances, and the stack exploits that (DESIGN.md §9): the solver is a
// reusable handle whose converged length function warm-starts the next
// related solve (falling back to a cold start when instances diverge),
// searched topologies grow one server at a time so adjacent probes share
// almost every cable, and the binary searches thread warm state between
// probes in deterministic order — measured ≥2× wall-clock on the
// Fig. 2(c)-style search (BENCH_mcf.json). CapacitySearch exposes the
// knobs; WhatIfEvaluator (ops.go) gives operators the same warm chain
// for what-if scenario sequences.
//
// # Writing kernel code
//
// The invariants above are machine-checked: cmd/jellyvet (analyzers in
// internal/lint, catalog in DESIGN.md §12) runs in CI and fails the
// build on violations. When touching a solver or simulator kernel:
//
//  1. Stay deterministic. In the packages listed in
//     lint.DeterministicPackages, don't range over maps (collect keys
//     and sort), don't read the clock, don't use the global math/rand
//     stream, and don't spawn goroutines outside internal/parallel.
//  2. Mark hot functions //jellyvet:hotpath and keep them at zero
//     steady-state allocations: no make/new/literals/closures/fmt, no
//     interface boxing. Growth of handle-owned scratch is fine, but
//     each append site carries a //jellyvet:allow naming the
//     zero-alloc test that pins its steady state.
//  3. Derive randomness by stable index: rng.Source.Split/SplitN per
//     task, and consume every stream you split (discarding one
//     silently shifts all later streams).
//  4. Keep warm state confined. Types marked //jellyvet:confined (the
//     planner cache's entries, the scheduler's shard workers) belong
//     to exactly one goroutine — never store them in globals, send
//     them on channels, or capture them in a new goroutine.
//  5. To overrule an analyzer, write
//     //jellyvet:allow <analyzer> -- <why this site is sound>; the
//     reason is mandatory and reviewed, and a bare suppression is
//     itself a finding.
//
// Run `go run ./cmd/jellyvet ./...` before pushing; `go test
// ./internal/lint` exercises the analyzers themselves.
package jellyfish

import (
	"context"
	"fmt"

	"jellyfish/internal/capsearch"
	"jellyfish/internal/estimate"
	"jellyfish/internal/graph"
	"jellyfish/internal/mcf"
	"jellyfish/internal/parallel"
	"jellyfish/internal/rng"
	"jellyfish/internal/topology"
	"jellyfish/internal/traffic"
)

// Topology is a switch-level interconnect with attached servers.
type Topology = topology.Topology

// Graph is the undirected switch graph underlying a Topology.
type Graph = graph.Graph

// PathStats summarizes shortest-path structure (mean, diameter, histogram).
type PathStats = graph.PathStats

// Config describes a homogeneous Jellyfish network RRG(Switches, Ports,
// NetworkDegree): every switch has Ports ports, NetworkDegree of which
// connect to other switches and the rest to servers.
type Config struct {
	Switches      int
	Ports         int
	NetworkDegree int
	Seed          uint64
}

// An InvalidConfigError reports a nonsensical configuration handed to one
// of the package's public entry points (ports ≤ 0, negative trial counts,
// infeasible degrees, …). Boundaries that cannot return errors — New, the
// CLIs — panic with it instead; the planning service maps it to HTTP 400.
type InvalidConfigError struct {
	// Op is the entry point that rejected the configuration
	// (e.g. "CapacitySearch", "Config").
	Op string
	// Field names the offending field, Value its rejected value.
	Field string
	Value any
	// Reason says what a sensible value would be.
	Reason string
}

func (e *InvalidConfigError) Error() string {
	return fmt.Sprintf("jellyfish: invalid %s.%s = %v: %s", e.Op, e.Field, e.Value, e.Reason)
}

// Validate checks the configuration against the constructive requirements
// New enforces by panic, returning a typed *InvalidConfigError so callers
// with a network boundary (the planning service) can reject bad requests
// instead of crashing.
func (c Config) Validate() error {
	switch {
	case c.Switches <= 0:
		return &InvalidConfigError{Op: "Config", Field: "Switches", Value: c.Switches, Reason: "need at least one switch"}
	case c.Ports <= 0:
		return &InvalidConfigError{Op: "Config", Field: "Ports", Value: c.Ports, Reason: "need at least one port per switch"}
	case c.NetworkDegree < 0:
		return &InvalidConfigError{Op: "Config", Field: "NetworkDegree", Value: c.NetworkDegree, Reason: "network degree cannot be negative"}
	case c.NetworkDegree > c.Ports:
		return &InvalidConfigError{Op: "Config", Field: "NetworkDegree", Value: c.NetworkDegree, Reason: fmt.Sprintf("exceeds the %d ports per switch", c.Ports)}
	case c.NetworkDegree >= c.Switches:
		return &InvalidConfigError{Op: "Config", Field: "NetworkDegree", Value: c.NetworkDegree, Reason: fmt.Sprintf("a simple graph on %d switches supports degree at most %d", c.Switches, c.Switches-1)}
	}
	return nil
}

// New constructs a Jellyfish topology using the paper's randomized
// procedure (§3). It panics on infeasible parameters (NetworkDegree >
// Ports or NetworkDegree >= Switches); validate with Config.Validate
// first when the parameters come from an untrusted boundary.
func New(cfg Config) *Topology {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return topology.Jellyfish(cfg.Switches, cfg.Ports, cfg.NetworkDegree, rng.New(cfg.Seed))
}

// NewHeterogeneous constructs a Jellyfish from a mixed switch inventory:
// switch i has ports[i] ports and attaches servers[i] servers; all
// remaining ports become random network links.
func NewHeterogeneous(ports, servers []int, seed uint64) *Topology {
	return topology.JellyfishHeterogeneous(ports, servers, rng.New(seed))
}

// NewFatTree constructs the 3-level k-ary fat-tree of Al-Fares et al.
// (k even): k³/4 servers on 5k²/4 k-port switches.
func NewFatTree(k int) *Topology { return topology.FatTree(k) }

// Expand grows a Jellyfish in place by newSwitches switches with the given
// port split, using the paper's incremental procedure (§4.2): random link
// splices only, rewiring proportional to the ports added.
func Expand(t *Topology, newSwitches, ports, networkDegree int, seed uint64) *Topology {
	return topology.ExpandJellyfish(t, newSwitches, ports, networkDegree, rng.New(seed))
}

// ExpandSwitchOnly grows network capacity without adding servers.
func ExpandSwitchOnly(t *Topology, newSwitches, ports int, seed uint64) *Topology {
	return topology.ExpandJellyfishSwitchOnly(t, newSwitches, ports, rng.New(seed))
}

// FailRandomLinks removes a uniform-random fraction of switch-switch links
// in place, returning how many were removed.
func FailRandomLinks(t *Topology, fraction float64, seed uint64) int {
	return topology.RemoveRandomLinks(t, fraction, rng.New(seed))
}

// FailRandomSwitches fails a uniform-random fraction of whole switches in
// place (links removed, servers dropped), returning the failed switch IDs.
func FailRandomSwitches(t *Topology, fraction float64, seed uint64) []int {
	return topology.FailRandomSwitches(t, fraction, rng.New(seed))
}

// OptimalThroughput evaluates the topology under random-permutation
// traffic with optimal (fluid, splittable) routing — the paper's §4
// methodology — and returns the normalized per-server throughput in [0,1]:
// the largest fraction of every server's NIC rate that can be delivered
// simultaneously, capped at 1. The optional trailing argument bounds the
// flow solver's CPU parallelism (default: all cores); the value returned
// is identical for every worker count.
func OptimalThroughput(t *Topology, seed uint64, workers ...int) float64 {
	return OptimalThroughputContext(context.Background(), t, seed, workers...)
}

// OptimalThroughputContext is OptimalThroughput with cancellation: ctx
// is polled once per Garg–Könemann phase of the flow solver, bounding
// cancellation latency to one phase instead of a whole solve. A
// cancelled solve is truncated: the returned value is a valid primal
// certificate of the phases run, but NOT the converged answer — callers
// that cancel must discard it, never cache it. Under a never-cancelled
// context the value is byte-identical to OptimalThroughput.
func OptimalThroughputContext(ctx context.Context, t *Topology, seed uint64, workers ...int) float64 {
	src := rng.New(seed)
	pat := traffic.RandomPermutation(t.ServerSwitches(), src.Split("traffic"))
	res := mcf.MaxConcurrentFlow(ctx, t.Graph, pat.Commodities(), mcf.Options{Workers: firstOrZero(workers)})
	return res.Throughput()
}

// EstimateThroughput brackets OptimalThroughput's answer with a bounded
// approximate estimator instead of the exact flow solver, for instances
// far beyond the exact solver's practical scale. It derives the same
// random-permutation traffic as OptimalThroughput(t, seed), runs the
// selected estimator ("bisection", "spectral", or "sampled-mcf" with the
// given subsample size; 0 selects the default), and returns certified
// normalized-throughput bounds with
//
//	lower ≤ OptimalThroughput(t, seed) ≤ upper
//
// after the same cap-at-1 normalization (capping preserves both sides).
// Deterministic in (topology, estimator, sample, seed).
func EstimateThroughput(t *Topology, estimator string, sample int, seed uint64) (lower, upper float64, err error) {
	return EstimateThroughputContext(context.Background(), t, estimator, sample, seed)
}

// EstimateThroughputContext is EstimateThroughput with cancellation: ctx
// is polled inside the estimator's solves (for estimators that run any;
// the closed-form estimators return before a poll matters). A cancel
// yields a soundly loose bracket, not the converged one: callers that
// cancel must discard it. Under a never-cancelled context the bounds
// are byte-identical to EstimateThroughput.
func EstimateThroughputContext(ctx context.Context, t *Topology, estimator string, sample int, seed uint64) (lower, upper float64, err error) {
	est, err := estimate.New(estimator, sample, seed)
	if err != nil {
		return 0, 0, err
	}
	src := rng.New(seed)
	pat := traffic.RandomPermutation(t.ServerSwitches(), src.Split("traffic"))
	b := est.Estimate(ctx, t.Compact(), pat.Commodities())
	return clamp01(b.Lower), clamp01(b.Upper), nil
}

// clamp01 clamps a normalized throughput bound into [0,1]: a server
// cannot exceed its NIC rate.
func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// SupportsFullThroughput reports whether the topology can serve trials
// independent random-permutation matrices at full NIC rate for every
// server — the paper's "full capacity" test. slack absorbs the
// approximation tolerance of the flow solver (0.03 is a good default).
func SupportsFullThroughput(t *Topology, trials int, slack float64, seed uint64, workers ...int) bool {
	src := rng.New(seed)
	w := firstOrZero(workers)
	return parallel.All(w, trials, func(i int) bool {
		pat := traffic.RandomPermutation(t.ServerSwitches(), src.SplitN("traffic", i))
		// Trials are the fan-out; each solver runs serially to keep the
		// goroutine count at w rather than w².
		return mcf.FeasibleAtFull(t.Graph, pat.Commodities(), mcf.Options{Workers: 1}, slack)
	})
}

// MaxServersAtFullThroughput binary-searches the largest server count a
// Jellyfish built from `switches` k-port switches can support at full
// capacity under random-permutation traffic (checked on `trials`
// matrices), reproducing the paper's Fig. 2(c) methodology. Servers are
// spread as evenly as possible across switches. Returns 0 if not even one
// server per switch is supportable (degenerate inventories can leave the
// network disconnected or bottlenecked below NIC rate).
//
// The search is incremental end to end (DESIGN.md §9): probed topologies
// come from one canonical family grown a server at a time — adjacent
// probes share almost every cable, as the paper's Fig. 6 shows is
// capacity-neutral — and the flow solver warm-starts each probe from the
// previous one's solution, with per-trial state chains advanced in
// deterministic probe order. Use CapacitySearch to tune the knobs.
//
// A nonsensical inventory (switches or ports ≤ 0, trials ≤ 0) returns a
// typed *InvalidConfigError instead of panicking or silently reporting 0,
// so network boundaries can distinguish "bad request" from "this
// inventory supports no servers".
func MaxServersAtFullThroughput(switches, ports, trials int, seed uint64) (int, error) {
	if trials <= 0 {
		return 0, &InvalidConfigError{Op: "MaxServersAtFullThroughput", Field: "trials", Value: trials, Reason: "need at least one permutation matrix per probe"}
	}
	return CapacitySearch{Switches: switches, Ports: ports, Trials: trials, Seed: seed}.Run()
}

// CapacitySearch configures a Fig. 2(c)-style capacity search. The zero
// value of the optional knobs selects the MaxServersAtFullThroughput
// behavior: slack 0.03, warm-started incremental probing, all cores.
type CapacitySearch struct {
	Switches, Ports int
	// Trials is the number of independent permutation matrices every
	// probed server count must support (default 3).
	Trials int
	// Slack absorbs the flow solver's approximation tolerance
	// (default 0.03).
	Slack float64
	Seed  uint64
	// Workers bounds the flow solver's CPU parallelism within each probe
	// solve (0 = all cores). Probes and their trials run sequentially so
	// warm state threads deterministically; the result is identical for
	// every worker count.
	Workers int
	// Estimator, when non-empty, screens probe trials with a bounded
	// approximate estimator ("bisection", "spectral", or "sampled-mcf")
	// before the exact solver runs: trials whose certified Upper bound
	// already falls below the feasibility target are rejected without
	// solving. Rejection-only screening keeps answers identical to the
	// exact-only search; the final bracket is always confirmed exactly.
	Estimator string
	// EstimatorSample is the sampled-mcf commodity subsample size
	// (0 selects the default; ignored by the other estimator kinds).
	EstimatorSample int
	// Obs, when non-nil, attaches one-way diagnostics instrumentation
	// (probe/trial/solver-phase spans and counters — see capsearch.Obs)
	// to the search. Telemetry never feeds back into the search: results
	// are identical with or without it, and external callers can simply
	// leave it nil. The planning service uses it to serve per-job span
	// trees on /v1/trace.
	Obs *capsearch.Obs
}

// Validate checks the search configuration, returning a typed
// *InvalidConfigError for nonsensical inventories or knobs. The zero
// values of the optional knobs (Trials, Slack, Workers) are valid — they
// select the documented defaults — but negative values are not.
func (c CapacitySearch) Validate() error {
	switch {
	case c.Switches <= 0:
		return &InvalidConfigError{Op: "CapacitySearch", Field: "Switches", Value: c.Switches, Reason: "need at least one switch"}
	case c.Ports <= 1:
		return &InvalidConfigError{Op: "CapacitySearch", Field: "Ports", Value: c.Ports, Reason: "a switch needs at least 2 ports to host a server and a network link"}
	case c.Trials < 0:
		return &InvalidConfigError{Op: "CapacitySearch", Field: "Trials", Value: c.Trials, Reason: "trial count cannot be negative (0 selects the default)"}
	case c.Slack < 0 || c.Slack >= 1:
		return &InvalidConfigError{Op: "CapacitySearch", Field: "Slack", Value: c.Slack, Reason: "slack must lie in [0, 1) (0 selects the default)"}
	case c.Workers < 0:
		return &InvalidConfigError{Op: "CapacitySearch", Field: "Workers", Value: c.Workers, Reason: "worker count cannot be negative (0 means all cores)"}
	case c.EstimatorSample < 0:
		return &InvalidConfigError{Op: "CapacitySearch", Field: "EstimatorSample", Value: c.EstimatorSample, Reason: "sample size cannot be negative (0 selects the default)"}
	}
	if c.Estimator != "" {
		if _, err := estimate.New(c.Estimator, c.EstimatorSample, c.Seed); err != nil {
			return &InvalidConfigError{Op: "CapacitySearch", Field: "Estimator", Value: c.Estimator, Reason: fmt.Sprintf("unknown estimator kind (have %v)", estimate.Kinds())}
		}
	}
	return nil
}

// Run executes the search and returns the largest supported server count
// (0 if even one server per switch is unsupportable). A nonsensical
// configuration returns a typed *InvalidConfigError (see Validate); a
// valid search never fails.
func (c CapacitySearch) Run() (int, error) {
	return c.RunOnFamily(nil, nil)
}

// A SearchFamily is the reusable warm asset of capacity searches over one
// inventory: the incrementally grown topology the probes share. It is a
// pure function of (Switches, Ports, Seed) — every search over the same
// inventory probes identical instances whether it builds its own family
// or receives a cached one — which is what lets a caching layer (the
// planning service) keep families across requests without changing any
// result. Safe for sequential reuse; not for concurrent searches.
type SearchFamily struct {
	fam *capsearch.Family
}

// NewFamily constructs the topology family c's probes grow, for callers
// that cache it across searches (see RunOnFamily).
func (c CapacitySearch) NewFamily() (*SearchFamily, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &SearchFamily{fam: capsearch.NewFamily(
		SpreadServers(c.Switches, c.Ports, c.Switches, c.Seed),
		rng.New(c.Seed).Split("grow"))}, nil
}

// RunOnFamily executes the search probing a caller-cached family (nil
// builds a fresh one — Run is exactly RunOnFamily(nil, nil)), invoking
// probe (when non-nil) after every completed feasibility probe — the
// streaming-progress hook for long-running service jobs. The probe
// sequence is a deterministic function of the search configuration, so
// identical searches produce identical (servers, feasible) streams. The
// family must come from NewFamily on a CapacitySearch with the same
// Switches, Ports, and Seed.
func (c CapacitySearch) RunOnFamily(fam *SearchFamily, probe func(servers int, feasible bool)) (int, error) {
	return c.RunOnFamilyContext(context.Background(), fam, probe)
}

// RunOnFamilyContext is RunOnFamily with cancellation: ctx is polled
// between trial solves and once per Garg–Könemann phase inside them, and
// once ctx.Err() is non-nil the search is abandoned and returns it. A
// cancelled probe is not observed.
func (c CapacitySearch) RunOnFamilyContext(ctx context.Context, fam *SearchFamily, probe func(servers int, feasible bool)) (int, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if c.Trials <= 0 {
		c.Trials = 3
	}
	if c.Slack <= 0 {
		c.Slack = 0.03
	}
	if fam == nil {
		fam, _ = c.NewFamily() // c already validated
	}
	var est estimate.ThroughputEstimator
	if c.Estimator != "" {
		est, _ = estimate.New(c.Estimator, c.EstimatorSample, c.Seed) // kind validated above
	}
	return capsearch.MaxServers(ctx, capsearch.Config{
		Lo:        c.Switches,
		Hi:        c.Switches * (c.Ports - 1),
		Family:    fam.fam,
		Traffic:   rng.New(c.Seed + capsearch.TrafficSeedOffset),
		Trials:    c.Trials,
		Slack:     c.Slack,
		Workers:   c.Workers,
		Estimator: est,
		Probe:     probe,
		Obs:       c.Obs,
	})
}

// SpreadServers builds a Jellyfish with exactly `servers` servers spread
// evenly over `switches` k-port switches (the construction used by the
// capacity searches).
func SpreadServers(switches, ports, servers int, seed uint64) *Topology {
	if servers > switches*(ports-1) {
		panic(fmt.Sprintf("jellyfish: %d servers exceed capacity of %d %d-port switches",
			servers, switches, ports))
	}
	return topology.JellyfishSpread(switches, ports, servers, rng.New(seed))
}

// MeanPathLength returns the mean inter-switch shortest path length over
// switches that host servers.
func MeanPathLength(t *Topology) float64 { return t.SwitchPathStats().Mean }

// Diameter returns the switch-graph diameter.
func Diameter(t *Topology) int { return t.Graph.Diameter() }
