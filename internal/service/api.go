// Package service implements jellyfishd, the resident topology-planning
// service: every planning operation the library can compute — designing a
// Jellyfish, evaluating throughput, Fig. 2(c)-style capacity searches,
// what-if failure/expansion chains, blueprint diffs — exposed as
// HTTP/JSON endpoints, with an async job API for the heavy sweeps.
//
// The core is a sharded scheduler (scheduler.go): a fixed pool of solver
// workers, each owning a warm-state cache; a topology family is placed
// on the least-loaded shard when first seen and stays there, so related
// queries land on the worker holding the matching warm state. Responses are deterministic — the same
// request yields byte-identical JSON regardless of worker count, cache
// hits, or request interleaving — because every cached value is a pure
// function of its cache key (DESIGN.md §10).
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"

	"jellyfish"
	"jellyfish/internal/telemetry"
	"jellyfish/internal/topology"
)

// An apiError is an error with an HTTP mapping; executors return it for
// client mistakes (bad configs, unknown jobs) so handlers can answer with
// the right status instead of a blanket 500.
type apiError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *apiError) Error() string { return e.Message }

func badRequest(code, format string, args ...any) *apiError {
	return &apiError{Status: http.StatusBadRequest, Code: code, Message: fmt.Sprintf(format, args...)}
}

// errorBody is the JSON envelope every error response uses.
type errorBody struct {
	Error *apiError `json:"error"`
}

// digest is the canonical content hash used for cache keys and
// single-flight identity: requests that decode to the same normalized
// value collide regardless of their JSON formatting.
func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("service: marshaling internal value: %v", err))
	}
	return b
}

// DesignSpec is the request-shaped jellyfish.Config.
type DesignSpec struct {
	Switches      int    `json:"switches"`
	Ports         int    `json:"ports"`
	NetworkDegree int    `json:"networkDegree"`
	Seed          uint64 `json:"seed"`
}

func (d DesignSpec) config() jellyfish.Config {
	return jellyfish.Config{Switches: d.Switches, Ports: d.Ports, NetworkDegree: d.NetworkDegree, Seed: d.Seed}
}

// TopologySpec names a topology in a request: either a design to
// construct deterministically or an inline blueprint (the JSON produced
// by WriteBlueprint / the /v1/design endpoint). Exactly one must be set.
type TopologySpec struct {
	Design    *DesignSpec     `json:"design,omitempty"`
	Blueprint json.RawMessage `json:"blueprint,omitempty"`

	// top and topErr are what topology.ParseBlueprint makes of Blueprint
	// when decodeStrict parsed it while reading the request; both are nil
	// otherwise.
	top    *topology.Topology
	topErr error
}

// A materialized topology spec: the canonical digest (cache and shard
// identity), the server count (for eager no-servers rejection), and a
// deferred constructor. Deferring construction keeps it off the handler
// goroutine: plans digest and schedule immediately, and a response-cache
// hit never builds the topology at all. build is called at most once —
// each plan executes at most once (hits and single-flight followers
// reuse the leader's bytes) — and the topology it returns is owned by
// that execution.
type materialized struct {
	digest  string
	servers int
	build   func() *jellyfish.Topology
}

// materialize validates the named topology and returns its deferred
// form, normalizing ts in place (blueprints are re-serialized
// canonically so formatting differences cannot split the cache). A
// blueprint decodeStrict already parsed is not parsed again.
// Topologies with no switches — including an empty or null blueprint
// document, which decodes without error — are rejected here: every
// planning operation on them is undefined.
func (ts *TopologySpec) materialize() (materialized, *apiError) {
	switch {
	case ts.Design != nil && ts.Blueprint == nil:
		cfg := ts.Design.config()
		if err := cfg.Validate(); err != nil {
			return materialized{}, badRequest("invalid_config", "%v", err)
		}
		return materialized{
			digest:  "d:" + digest(mustJSON(ts.Design)),
			servers: cfg.Switches * (cfg.Ports - cfg.NetworkDegree),
			build:   func() *jellyfish.Topology { return jellyfish.New(cfg) },
		}, nil
	case ts.Blueprint != nil && ts.Design == nil:
		top, err := ts.top, ts.topErr
		if top == nil && err == nil {
			top, err = topology.ParseBlueprint(ts.Blueprint)
		}
		ts.top, ts.topErr = nil, nil
		if err != nil {
			return materialized{}, badRequest("invalid_blueprint", "%v", err)
		}
		if top.NumSwitches() == 0 {
			return materialized{}, badRequest("invalid_blueprint", "blueprint describes no switches")
		}
		ts.Blueprint = canonicalBlueprint(top)
		return materialized{
			digest:  "b:" + digest(ts.Blueprint),
			servers: top.NumServers(),
			build:   func() *jellyfish.Topology { return top },
		}, nil
	default:
		return materialized{}, badRequest("invalid_topology", "specify exactly one of \"design\" or \"blueprint\"")
	}
}

// keyed returns the spec as plan keys hash it. An inline blueprint,
// already parsed and digested by materialize, stands in as the JSON
// string of its digest ("b:<hex>"), so building a key does not re-scan
// the document; identical canonical blueprints still share a key.
func (ts TopologySpec) keyed(mat materialized) TopologySpec {
	if ts.Blueprint != nil {
		ts.Blueprint = json.RawMessage(`"` + mat.digest + `"`)
	}
	return ts
}

// canonicalBlueprint is a topology's blueprint in canonical form, the
// compact document the topology package's one blueprint encoder
// (AppendBlueprint) writes: /v1/design returns these bytes, and an
// inline blueprint is replaced by them before it is digested.
func canonicalBlueprint(top *jellyfish.Topology) json.RawMessage {
	return top.AppendBlueprint(nil)
}

// DesignResponse reports a constructed topology with its headline
// structural properties and the cabling blueprint.
type DesignResponse struct {
	Switches  int             `json:"switches"`
	Servers   int             `json:"servers"`
	Links     int             `json:"links"`
	MeanPath  float64         `json:"meanPath"`
	Diameter  int             `json:"diameter"`
	Blueprint json.RawMessage `json:"blueprint"`
}

// appendJSON appends the response as json.Marshal encodes it, without
// json.Marshal's second scan of the blueprint: the number fields go
// through json.Marshal, and the blueprint, canonicalBlueprint's compact
// and escaped document, is copied as it is.
func (r *DesignResponse) appendJSON(dst []byte) ([]byte, error) {
	head, err := json.Marshal(struct {
		Switches int     `json:"switches"`
		Servers  int     `json:"servers"`
		Links    int     `json:"links"`
		MeanPath float64 `json:"meanPath"`
		Diameter int     `json:"diameter"`
	}{r.Switches, r.Servers, r.Links, r.MeanPath, r.Diameter})
	if err != nil {
		return nil, err
	}
	dst = append(append(dst, head[:len(head)-1]...), `,"blueprint":`...)
	if r.Blueprint == nil {
		dst = append(dst, "null"...)
	}
	return append(append(dst, r.Blueprint...), '}'), nil
}

// A TransportSpec selects a realizable data plane — a routing scheme plus
// a congestion-control model from internal/flowsim — instead of the
// optimal-routing flow solver. Evaluations with a transport spec report
// what the named protocol actually achieves over the named route tables
// (Table 1's methodology as a service).
type TransportSpec struct {
	// Protocol is "tcp1", "tcp8", or "mptcp8".
	Protocol string `json:"protocol"`
	// Routing is "ecmp8", "ecmp64", or "ksp8" (default "ksp8").
	Routing string `json:"routing,omitempty"`
}

// An EstimatorSpec selects a bounded approximate throughput estimator
// (internal/estimate) instead of the exact flow solver: the megascale
// path for instances far beyond the exact solver's practical scale.
// Results carry certified [lower, upper] brackets around the exact
// answer, never point estimates.
type EstimatorSpec struct {
	// Kind is "bisection", "spectral", or "sampled-mcf".
	Kind string `json:"kind"`
	// Sample is the sampled-mcf commodity subsample size (0 selects the
	// default; ignored by the other kinds).
	Sample int `json:"sample,omitempty"`
}

// EvaluateRequest asks for throughput under random-permutation traffic;
// trial i evaluates at seed+i, so trials=1 at seed s reproduces
// jellyfish.OptimalThroughput(t, s) exactly. With Transport set, trials
// run the flow-level transport simulator over compiled per-topology
// instances (the "sim:" warm-cache tier) instead of the optimal-routing
// solver. With Estimator set (exclusive with Transport), trials run the
// named bounded estimator: Throughputs carries the certified lower
// bounds and Bounds the full [lower, upper] brackets.
type EvaluateRequest struct {
	Topology  TopologySpec   `json:"topology"`
	Seed      uint64         `json:"seed"`
	Trials    int            `json:"trials,omitempty"`
	Transport *TransportSpec `json:"transport,omitempty"`
	Estimator *EstimatorSpec `json:"estimator,omitempty"`
}

type EvaluateResponse struct {
	Throughputs []float64 `json:"throughputs"`
	Min         float64   `json:"min"`
	Mean        float64   `json:"mean"`
	// Bounds, present only for estimator evaluations, carries trial i's
	// certified [lower, upper] bracket around the exact normalized
	// throughput (omitted otherwise, keeping legacy responses
	// byte-identical).
	Bounds [][2]float64 `json:"bounds,omitempty"`
}

// CapacitySearchRequest is the request-shaped jellyfish.CapacitySearch.
// Trials and Slack default like the library's (3 and 0.03).
type CapacitySearchRequest struct {
	Switches int     `json:"switches"`
	Ports    int     `json:"ports"`
	Trials   int     `json:"trials,omitempty"`
	Slack    float64 `json:"slack,omitempty"`
	Seed     uint64  `json:"seed"`
	// Estimator, when set, screens probe trials with certified bounds so
	// only near-boundary probes pay for exact solves. Answers are
	// identical to the exact-only search (rejection-only screening; the
	// final bracket is always confirmed exactly).
	Estimator *EstimatorSpec `json:"estimator,omitempty"`
}

type CapacitySearchResponse struct {
	MaxServers       int     `json:"maxServers"`
	Switches         int     `json:"switches"`
	Ports            int     `json:"ports"`
	ServersPerSwitch float64 `json:"serversPerSwitch"`
}

// A Scenario is one what-if step applied to the preceding topology in the
// chain. Exactly one operation must be set.
type Scenario struct {
	FailLinks    *FailLinksOp    `json:"failLinks,omitempty"`
	FailSwitches *FailSwitchesOp `json:"failSwitches,omitempty"`
	Expand       *ExpandOp       `json:"expand,omitempty"`
	Miswire      *MiswireOp      `json:"miswire,omitempty"`
}

type FailLinksOp struct {
	Fraction float64 `json:"fraction"`
	Seed     uint64  `json:"seed"`
}

type FailSwitchesOp struct {
	Fraction float64 `json:"fraction"`
	Seed     uint64  `json:"seed"`
}

type ExpandOp struct {
	Switches      int    `json:"switches"`
	Ports         int    `json:"ports"`
	NetworkDegree int    `json:"networkDegree"`
	Seed          uint64 `json:"seed"`
}

// MiswireOp swaps endpoint pairs between `count` random cable pairs —
// the careless-cabling-crew model of §6.1 (SimulateMiswirings). The
// paper's claim that a Jellyfish with a few crossed cables is just
// another random graph becomes a testable what-if: chain a miswire step
// and compare its throughput to the base's.
type MiswireOp struct {
	Count int    `json:"count"`
	Seed  uint64 `json:"seed"`
}

// validate checks that exactly one operation is set and its parameters
// are sensible.
func (sc *Scenario) validate(i int) *apiError {
	set := 0
	if sc.FailLinks != nil {
		set++
		if f := sc.FailLinks.Fraction; f < 0 || f >= 1 {
			return badRequest("invalid_scenario", "scenario %d: failLinks.fraction %v outside [0, 1)", i, f)
		}
	}
	if sc.FailSwitches != nil {
		set++
		if f := sc.FailSwitches.Fraction; f < 0 || f >= 1 {
			return badRequest("invalid_scenario", "scenario %d: failSwitches.fraction %v outside [0, 1)", i, f)
		}
	}
	if sc.Expand != nil {
		set++
		e := sc.Expand
		if e.Switches <= 0 || e.Ports <= 0 || e.NetworkDegree < 0 || e.NetworkDegree > e.Ports {
			return badRequest("invalid_scenario", "scenario %d: expand needs switches > 0, ports > 0, and 0 <= networkDegree <= ports", i)
		}
	}
	if sc.Miswire != nil {
		set++
		if sc.Miswire.Count <= 0 {
			return badRequest("invalid_scenario", "scenario %d: miswire.count must be > 0", i)
		}
	}
	if set != 1 {
		return badRequest("invalid_scenario", "scenario %d: exactly one of failLinks, failSwitches, expand, miswire must be set", i)
	}
	return nil
}

// apply mutates top in place and returns the step's description.
func (sc *Scenario) apply(top *jellyfish.Topology) string {
	switch {
	case sc.FailLinks != nil:
		n := jellyfish.FailRandomLinks(top, sc.FailLinks.Fraction, sc.FailLinks.Seed)
		return fmt.Sprintf("failLinks(fraction=%v, seed=%d): %d links removed", sc.FailLinks.Fraction, sc.FailLinks.Seed, n)
	case sc.FailSwitches != nil:
		ids := jellyfish.FailRandomSwitches(top, sc.FailSwitches.Fraction, sc.FailSwitches.Seed)
		return fmt.Sprintf("failSwitches(fraction=%v, seed=%d): %d switches failed", sc.FailSwitches.Fraction, sc.FailSwitches.Seed, len(ids))
	case sc.Miswire != nil:
		m := sc.Miswire
		n := jellyfish.SimulateMiswirings(top, m.Count, m.Seed)
		return fmt.Sprintf("miswire(count=%d, seed=%d): %d cable-pair swaps applied", m.Count, m.Seed, n)
	default:
		e := sc.Expand
		jellyfish.Expand(top, e.Switches, e.Ports, e.NetworkDegree, e.Seed)
		return fmt.Sprintf("expand(switches=%d, ports=%d, networkDegree=%d, seed=%d)", e.Switches, e.Ports, e.NetworkDegree, e.Seed)
	}
}

// WhatIfRequest scores a scenario sequence rooted at a base topology.
// Step i's throughput is chain-evaluated: the flow solver warm-starts
// from step i-1's solution (DESIGN.md §9), so the sequence itself is part
// of the request contract — the same base, seed, and scenario prefix
// always yield the same numbers, which is what lets the service cache
// chain prefixes without changing any response.
type WhatIfRequest struct {
	Base      TopologySpec `json:"base"`
	Seed      uint64       `json:"seed"`
	Scenarios []Scenario   `json:"scenarios"`
	// Transport, when set, additionally reports each step's flow-level
	// transport throughput (TransportThroughput) alongside the optimal-
	// routing one, reusing the family's compiled simulator instance.
	Transport *TransportSpec `json:"transport,omitempty"`
}

type WhatIfStep struct {
	// Step 0 is the base topology; step i is after scenarios[i-1].
	Step        int     `json:"step"`
	Description string  `json:"description"`
	Switches    int     `json:"switches"`
	Servers     int     `json:"servers"`
	Links       int     `json:"links"`
	Throughput  float64 `json:"throughput"`
	// TransportThroughput is set only when the request named a transport
	// spec (pointer so legacy responses stay byte-identical).
	TransportThroughput *float64 `json:"transportThroughput,omitempty"`
}

type WhatIfResponse struct {
	Steps []WhatIfStep `json:"steps"`
}

// RewireRequest asks for the cable moves turning one topology into
// another (§4.2/§6.2 automation).
type RewireRequest struct {
	Before TopologySpec `json:"before"`
	After  TopologySpec `json:"after"`
}

type RewireResponse struct {
	Remove [][2]int `json:"remove"`
	Add    [][2]int `json:"add"`
	Moves  int      `json:"moves"`
}

// Streaming progress events (GET /v1/jobs/{id}/events, served as
// Server-Sent Events): each executor emits typed payloads at its
// natural progress boundaries — capacity searches per feasibility
// probe, evaluations per trial, what-if chains per step. Event
// PAYLOADS are covered by the determinism guarantee: the same request
// yields the identical payload sequence regardless of worker count,
// cache state (cache hits replay the recorded stream), or whether the
// subscriber watched live or connected after completion. Job envelope
// metadata (ids, timestamps) never appears in the stream for exactly
// that reason.

// A ProbeEvent reports one capacity-search feasibility probe.
type ProbeEvent struct {
	Op       string `json:"op"` // "probe"
	Servers  int    `json:"servers"`
	Feasible bool   `json:"feasible"`
}

// A TrialEvent reports one completed evaluation trial.
type TrialEvent struct {
	Op         string  `json:"op"` // "trial"
	Trial      int     `json:"trial"`
	Throughput float64 `json:"throughput"`
	// Bounds carries the certified bracket for estimator trials (absent
	// otherwise).
	Bounds *[2]float64 `json:"bounds,omitempty"`
}

// A StepEvent reports one evaluated what-if chain step.
type StepEvent struct {
	Op   string     `json:"op"` // "step"
	Step WhatIfStep `json:"step"`
}

// TraceResponse is GET /v1/trace/{id}: the span tree a finished job's
// execution recorded on its shard worker's flight recorder — operation
// root span, capacity-search probes and trials, solver solves and
// phases, what-if steps — with wall-clock timings. Diagnostics only:
// NOT covered by the determinism guarantee, and not persisted.
type TraceResponse struct {
	JobID string           `json:"jobId"`
	Trace *telemetry.Trace `json:"trace"`
}
