package service

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"jellyfish"
	"jellyfish/internal/estimate"
	"jellyfish/internal/flowsim"
	"jellyfish/internal/mcf"
	"jellyfish/internal/rng"
	"jellyfish/internal/routing"
	"jellyfish/internal/topology"
	"jellyfish/internal/traffic"
)

// This file turns normalized requests into plans: the executor closures
// that run on a shard worker with access to its warm-state cache. Every
// cache entry written here is a pure function of its key — the property
// the determinism guarantee rests on (DESIGN.md §10):
//
//   - "family:" entries memoize capacity-search topology families
//     (jellyfish.SearchFamily), pure in the inventory;
//   - "chain:" entries checkpoint what-if chains, keyed by the content
//     digest of the exact (base, seed, scenario-prefix) that produced
//     them, so resuming from one is bit-identical to replaying it;
//   - "resp:" entries (scheduler.go) memoize finished response bytes by
//     canonical request digest;
//   - "sim:" entries hold compiled transport instances (built topology +
//     routing.Compiled + flowsim.Sim) keyed by the same topology-family
//     digest the shard router hashes on, so repeated transport
//     evaluate/what-if requests over one family reuse route tables and
//     simulator scratch. Reuse is bit-identical to cold state by the
//     simulator's and compiled router's contracts, so this tier — like
//     the others — changes wall-clock, never a response.

// emitKey carries the progress sink through an execution's context; the
// scheduler installs it (runGuarded) so executors stay ignorant of who —
// if anyone — is listening.
type emitKey struct{}

// emit publishes one progress payload from inside an executor. Payloads
// are canonical JSON of deterministic values only — they are cached with
// the response and replayed on hits, so anything nondeterministic here
// would break the stream's byte-identity guarantee.
func emit(ctx context.Context, v any) {
	if sink, ok := ctx.Value(emitKey{}).(func([]byte)); ok {
		sink(mustJSON(v))
	}
}

// An op is one planning operation. Its name is the sync route
// (POST /v1/{name}), the job type, the op label on the duration series,
// and the root span of its trace; plan strictly decodes a request
// document and plans it.
type op struct {
	name string
	plan func(body []byte) (*plan, *apiError)
}

// ops is the one list of planning operations: routes, job types, replay,
// and metric labels all derive from it.
var ops = []op{
	opOf("design", planDesign),
	opOf("evaluate", planEvaluate),
	opOf("capacity-search", planCapacitySearch),
	opOf("whatif", planWhatIf),
	opOf("rewire-plan", planRewire),
}

// opOf builds an op table entry around a typed planner. Sync requests
// and jobs both enter through it, so the two share canonical digests —
// and therefore response bytes — for the same request document.
func opOf[T any](name string, planFor func(*T) (*plan, *apiError)) op {
	return op{name: name, plan: func(body []byte) (*plan, *apiError) {
		var req T
		if aerr := decodeStrict(body, &req); aerr != nil {
			return nil, aerr
		}
		p, aerr := planFor(&req)
		if aerr != nil {
			return nil, aerr
		}
		p.op = name
		return p, nil
	}}
}

// opNames lists the table's names for error messages:
// "a, b, or c".
func opNames() string {
	names := make([]string, len(ops))
	for i, o := range ops {
		names[i] = o.name
	}
	return strings.Join(names[:len(names)-1], ", ") + ", or " + names[len(names)-1]
}

func planDesign(spec *DesignSpec) (*plan, *apiError) {
	ts := TopologySpec{Design: spec}
	// Validate eagerly so bad requests fail before scheduling.
	mat, aerr := ts.materialize()
	if aerr != nil {
		return nil, aerr
	}
	canon := mustJSON(spec)
	return &plan{
		family: "d:" + digest(canon),
		key:    "design:" + digest(canon),
		run: func(ctx context.Context, w *worker) (any, error) {
			top := mat.build()
			bp, aerr := canonicalBlueprint(top)
			if aerr != nil {
				return nil, aerr
			}
			stats := top.SwitchPathStats()
			return &DesignResponse{
				Switches:  top.NumSwitches(),
				Servers:   top.NumServers(),
				Links:     top.NumLinks(),
				MeanPath:  stats.Mean,
				Diameter:  stats.Diameter,
				Blueprint: bp,
			}, nil
		},
	}, nil
}

// validate checks an estimator spec (nil is valid: it selects the exact
// solver path).
func (es *EstimatorSpec) validate() *apiError {
	if es == nil {
		return nil
	}
	if es.Sample < 0 {
		return badRequest("invalid_config", "estimator sample %d cannot be negative (0 selects the default)", es.Sample)
	}
	if _, err := estimate.New(es.Kind, es.Sample, 0); err != nil {
		return badRequest("invalid_config", "estimator kind %q not one of %v", es.Kind, estimate.Kinds())
	}
	return nil
}

// validate normalizes and checks a transport spec (nil is valid: it
// selects the optimal-routing solver).
func (ts *TransportSpec) validate() *apiError {
	if ts == nil {
		return nil
	}
	switch ts.Protocol {
	case "tcp1", "tcp8", "mptcp8":
	default:
		return badRequest("invalid_config", "transport protocol %q not one of tcp1, tcp8, mptcp8", ts.Protocol)
	}
	if ts.Routing == "" {
		ts.Routing = "ksp8"
	}
	switch ts.Routing {
	case "ecmp8", "ecmp64", "ksp8":
	default:
		return badRequest("invalid_config", "transport routing %q not one of ecmp8, ecmp64, ksp8", ts.Routing)
	}
	return nil
}

func (ts *TransportSpec) protocol() flowsim.Protocol {
	switch ts.Protocol {
	case "tcp1":
		return flowsim.TCP1
	case "tcp8":
		return flowsim.TCP8
	default:
		return flowsim.MPTCP8
	}
}

// cacheKey distinguishes chains evaluated under different data planes.
func (ts *TransportSpec) cacheKey() string {
	if ts == nil {
		return ""
	}
	return ts.Protocol + "/" + ts.Routing
}

// simAsset is a "sim:" tier entry: the compiled transport instance of one
// topology family. Confined to its shard worker like every mutable warm
// asset; reuse is bit-identical to cold state.
//
//jellyvet:confined
type simAsset struct {
	top      *topology.Topology
	compiled *routing.Compiled
	sim      *flowsim.Sim
	srv      []int // server→switch scratch reused across trials
}

// transportAsset fetches or creates the family's compiled instance.
// needTopology selects whether the built base topology and its compiled
// routing are populated: evaluate runs on them, while what-if borrows
// only the simulator scratch (its scenarios mutate a private copy of the
// topology, so building the base assets would be wasted work). They are
// filled in lazily on the first evaluate over the family — every field
// is a pure function of the digest, so the entry stays
// cache-state-invisible either way.
func transportAsset(w *worker, mat materialized, needTopology bool) *simAsset {
	key := "sim:" + mat.digest
	var a *simAsset
	if v, ok := w.lookup(tierSim, key); ok {
		a = v.(*simAsset)
	} else {
		a = &simAsset{sim: flowsim.NewSim(0, mat.servers)}
		w.cache.put(key, a)
	}
	if needTopology && a.top == nil {
		a.top = mat.build()
		a.compiled = routing.NewCompiled(a.top.Graph)
	}
	return a
}

// transportThroughput runs one transport trial on top using the given
// compiled routing instance and simulator scratch. Streams are derived
// from the seed exactly like the experiment harness's simMean ("traffic",
// "routes", and — for the hashed-subflow protocols only — "sim";
// mptcp8 consumes no randomness, per flowsim's stream contract).
// The srv buffer holds the server→switch map between trials; the pattern
// built from it is dead before the next trial overwrites it.
func transportThroughput(sim *flowsim.Sim, compiled *routing.Compiled, top *topology.Topology, spec *TransportSpec, seed uint64, srv *[]int) float64 {
	src := rng.New(seed).Split("transport")
	*srv = top.ServerSwitchesInto(*srv)
	pat := traffic.RandomPermutation(*srv, src.Split("traffic"))
	pairs := routing.PairsForPattern(pat)
	var table *routing.Table
	switch spec.Routing {
	case "ecmp8":
		table = compiled.ECMP(pairs, 8, src.Split("routes"), 1)
	case "ecmp64":
		table = compiled.ECMP(pairs, 64, src.Split("routes"), 1)
	default:
		table = compiled.KShortest(pairs, 8, 1)
	}
	proto := spec.protocol()
	return sim.Simulate(pat.Flows, table, proto, flowsim.SimSource(src, proto)).Mean()
}

func planEvaluate(req *EvaluateRequest) (*plan, *apiError) {
	if req.Trials == 0 {
		req.Trials = 1
	}
	if req.Trials < 0 || req.Trials > 64 {
		return nil, badRequest("invalid_config", "trials %d outside [1, 64]; split larger sweeps across requests (the cap applies to jobs too)", req.Trials)
	}
	if aerr := req.Transport.validate(); aerr != nil {
		return nil, aerr
	}
	if aerr := req.Estimator.validate(); aerr != nil {
		return nil, aerr
	}
	if req.Transport != nil && req.Estimator != nil {
		return nil, badRequest("invalid_config", "transport and estimator are mutually exclusive: a transport simulation measures a realizable data plane, an estimator brackets the optimal-routing answer")
	}
	mat, aerr := req.Topology.materialize()
	if aerr != nil {
		return nil, aerr
	}
	if mat.servers == 0 {
		return nil, badRequest("invalid_topology", "topology has no servers; throughput is undefined")
	}
	canon := mustJSON(req) // materialize canonicalized inline blueprints
	return &plan{
		family: mat.digest,
		key:    "evaluate:" + digest(canon),
		run: func(ctx context.Context, w *worker) (any, error) {
			resp := &EvaluateResponse{Throughputs: make([]float64, 0, req.Trials)}
			sum := 0.0
			// Thread this request's cancellation into the kernels so a
			// cancel lands mid-trial (one solver phase, one sim filling
			// round) instead of waiting out the whole trial. A truncated
			// kernel can return a partial value, so every trial that could
			// have been interrupted is followed by a ctx re-check before
			// its value is trusted — and the final check below keeps a
			// partial last trial out of the response cache.
			intr := func() bool { return ctx.Err() != nil }
			var top *topology.Topology
			var asset *simAsset
			if req.Transport != nil {
				asset = transportAsset(w, mat, true)
				asset.sim.SetInterrupt(intr)
			} else {
				top = mat.build()
			}
			for i := 0; i < req.Trials; i++ {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				w.tele.rec.Begin("evaluate.trial", int64(i))
				var lam float64
				var bounds *[2]float64
				switch {
				case asset != nil:
					lam = transportThroughput(asset.sim, asset.compiled, asset.top, req.Transport, req.Seed+uint64(i), &asset.srv)
				case req.Estimator != nil:
					// Certified bracket around the exact trial answer; the
					// conservative (lower) side stands in as the trial's
					// throughput so aggregate Min/Mean never overpromise.
					lo, hi, err := jellyfish.EstimateThroughputInterruptible(top, req.Estimator.Kind, req.Estimator.Sample, req.Seed+uint64(i), intr)
					if err != nil {
						w.tele.rec.End()
						return nil, err // unreachable: kind validated at plan time
					}
					resp.Bounds = append(resp.Bounds, [2]float64{lo, hi})
					bounds = &resp.Bounds[len(resp.Bounds)-1]
					lam = lo
				default:
					lam = jellyfish.OptimalThroughputInterruptible(top, req.Seed+uint64(i), intr, w.solverWorkers)
				}
				w.tele.rec.End()
				resp.Throughputs = append(resp.Throughputs, lam)
				sum += lam
				emit(ctx, &TrialEvent{Op: "trial", Trial: i, Throughput: lam, Bounds: bounds})
			}
			if err := ctx.Err(); err != nil {
				return nil, err // a truncated trial must not reach the resp: cache
			}
			resp.Min = slices.Min(resp.Throughputs)
			resp.Mean = sum / float64(req.Trials)
			return resp, nil
		},
	}, nil
}

func planCapacitySearch(req *CapacitySearchRequest) (*plan, *apiError) {
	// Normalize the optional knobs to their documented defaults before
	// digesting, so {"trials":3} and an omitted trials coalesce.
	if req.Trials == 0 {
		req.Trials = 3
	}
	if req.Slack == 0 {
		req.Slack = 0.03
	}
	cs := jellyfish.CapacitySearch{
		Switches: req.Switches, Ports: req.Ports, Trials: req.Trials,
		Slack: req.Slack, Seed: req.Seed,
	}
	if req.Estimator != nil {
		if aerr := req.Estimator.validate(); aerr != nil {
			return nil, aerr
		}
		cs.Estimator = req.Estimator.Kind
		cs.EstimatorSample = req.Estimator.Sample
	}
	if err := cs.Validate(); err != nil {
		return nil, badRequest("invalid_config", "%v", err)
	}
	canon := mustJSON(req)
	famKey := fmt.Sprintf("family:%d:%d:%d", req.Switches, req.Ports, req.Seed)
	return &plan{
		family: famKey,
		key:    "capsearch:" + digest(canon),
		run: func(ctx context.Context, w *worker) (any, error) {
			// The family is the search's reusable warm asset: one
			// incrementally grown topology per inventory, shared across
			// every search over it (bit-identical to rebuilding, because
			// SearchFamily is pure in the inventory). The search itself is
			// the library's: same brackets, defaults, and random streams
			// as CapacitySearch.Run, just probing the cached family.
			cs := cs
			cs.Workers = w.solverWorkers
			// One-way kernel observability: probe/trial/solve spans land on
			// this worker's flight recorder, counters on the shared slots.
			cs.Obs = w.tele.search
			var fam *jellyfish.SearchFamily
			if v, ok := w.lookup(tierFamily, famKey); ok {
				fam = v.(*jellyfish.SearchFamily)
			} else {
				var err error
				if fam, err = cs.NewFamily(); err != nil {
					return nil, err
				}
				w.cache.put(famKey, fam)
			}
			max, err := cs.RunOnFamilyObserved(fam, func() bool {
				return ctx.Err() != nil
			}, func(servers int, feasible bool) {
				emit(ctx, &ProbeEvent{Op: "probe", Servers: servers, Feasible: feasible})
			})
			if err == jellyfish.ErrInterrupted {
				return nil, ctx.Err()
			}
			if err != nil {
				return nil, err
			}
			return &CapacitySearchResponse{
				MaxServers:       max,
				Switches:         req.Switches,
				Ports:            req.Ports,
				ServersPerSwitch: float64(max) / float64(req.Switches),
			}, nil
		},
	}, nil
}

// chainPoint is a what-if chain checkpoint: the steps evaluated so far
// and the solver state after the last one. Both are immutable once cached
// (steps are cloned on store and on resume; mcf.State is immutable by
// construction), so checkpoints can be shared across requests freely.
type chainPoint struct {
	steps []WhatIfStep
	st    *mcf.State
}

// chainKeys derives the checkpoint keys of a what-if chain: keys[0]
// covers the base solve, keys[i] the chain through scenarios[i-1]. Each
// key is a running content digest, so two requests share a key exactly
// when they share the base, the seed, the data plane (transport spec —
// cached steps embed its throughput column), and the whole scenario
// prefix — the condition under which their chains are bit-identical.
func chainKeys(baseDigest string, seed uint64, transport string, scenarios []Scenario) []string {
	keys := make([]string, len(scenarios)+1)
	keys[0] = digest([]byte("chain"), []byte(baseDigest), []byte(fmt.Sprint(seed)), []byte(transport))
	for i, sc := range scenarios {
		keys[i+1] = digest([]byte(keys[i]), mustJSON(&sc))
	}
	return keys
}

func planWhatIf(req *WhatIfRequest) (*plan, *apiError) {
	mat, aerr := req.Base.materialize()
	if aerr != nil {
		return nil, aerr
	}
	if mat.servers == 0 {
		return nil, badRequest("invalid_topology", "base topology has no servers; throughput is undefined")
	}
	if len(req.Scenarios) > 128 {
		return nil, badRequest("invalid_config", "%d scenarios exceed the per-request limit of 128; split the chain", len(req.Scenarios))
	}
	if aerr := req.Transport.validate(); aerr != nil {
		return nil, aerr
	}
	for i := range req.Scenarios {
		if aerr := req.Scenarios[i].validate(i); aerr != nil {
			return nil, aerr
		}
	}
	canon := mustJSON(req)
	keys := chainKeys(mat.digest, req.Seed, req.Transport.cacheKey(), req.Scenarios)
	return &plan{
		family: mat.digest,
		key:    "whatif:" + digest(canon),
		run: func(ctx context.Context, w *worker) (any, error) {
			// Resume from the deepest cached checkpoint of this exact
			// chain; everything before it is bit-identical by key purity.
			resumed := -1
			var cp *chainPoint
			for i := len(keys) - 1; i >= 0; i-- {
				if v, ok := w.cache.get("chain:" + keys[i]); ok {
					cp = v.(*chainPoint)
					resumed = i
					break
				}
			}
			top := mat.build()
			for i := 1; i <= resumed; i++ {
				req.Scenarios[i-1].apply(top)
			}
			// A fresh evaluator per request keeps executions pure: warm
			// value is carried by the immutable checkpoint states, never
			// by solver buffers with cross-request history. The transport
			// column borrows the family's compiled simulator scratch (the
			// "sim:" tier) — reuse is result-invisible by the Sim
			// contract — but compiles routing per step: scenarios mutate
			// the graph, and a routing.Compiled is bound to one graph.
			ev := jellyfish.NewWhatIfEvaluator(w.solverWorkers)
			// Cancellation lands mid-step (one solver phase / one sim
			// round); each step re-checks ctx before its checkpoint is
			// cached, so a truncated solve never becomes a chain
			// checkpoint other requests would resume from.
			intr := func() bool { return ctx.Err() != nil }
			ev.SetInterrupt(intr)
			var simScratch *flowsim.Sim
			var srvBuf []int
			if req.Transport != nil {
				simScratch = transportAsset(w, mat, false).sim
				// Always (re)install this request's poll: the shared sim
				// asset still holds the previous borrower's closure, which
				// may reference a context that has since been cancelled.
				simScratch.SetInterrupt(intr)
			}
			stepOf := func(i int, desc string, lam float64) WhatIfStep {
				st := WhatIfStep{
					Step: i, Description: desc,
					Switches: top.NumSwitches(), Servers: top.NumServers(),
					Links: top.NumLinks(), Throughput: lam,
				}
				if req.Transport != nil {
					tp := transportThroughput(simScratch, routing.NewCompiled(top.Graph), top, req.Transport, req.Seed, &srvBuf)
					st.TransportThroughput = &tp
				}
				return st
			}
			var steps []WhatIfStep
			// One hit or miss per request, however many prefix keys the
			// resume scan probed.
			if resumed >= 0 {
				w.tele.hits[tierChain].Inc()
				steps = slices.Clone(cp.steps)
				ev.SetState(cp.st)
			} else {
				w.tele.misses[tierChain].Inc()
				w.tele.rec.Begin("whatif.step", 0)
				lam := ev.OptimalThroughput(top, req.Seed)
				w.tele.rec.End()
				st := stepOf(0, "base", lam)
				if err := ctx.Err(); err != nil {
					return nil, err // truncated base solve; do not checkpoint
				}
				steps = []WhatIfStep{st}
				w.cache.put("chain:"+keys[0], &chainPoint{steps: slices.Clone(steps), st: ev.State()})
				resumed = 0
			}
			// Replay the resumed prefix into the event stream: a checkpoint
			// hit must emit exactly the payloads a cold evaluation would,
			// or cache state would leak into the stream bytes.
			for _, st := range steps {
				emit(ctx, &StepEvent{Op: "step", Step: st})
			}
			for i := resumed + 1; i < len(keys); i++ {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				desc := req.Scenarios[i-1].apply(top)
				if top.NumServers() == 0 {
					return nil, badRequest("invalid_scenario", "scenario %d leaves the topology with no servers; throughput is undefined", i-1)
				}
				w.tele.rec.Begin("whatif.step", int64(i))
				lam := ev.OptimalThroughput(top, req.Seed)
				w.tele.rec.End()
				st := stepOf(i, desc, lam)
				if err := ctx.Err(); err != nil {
					return nil, err // truncated step solve; do not checkpoint
				}
				steps = append(steps, st)
				w.cache.put("chain:"+keys[i], &chainPoint{steps: slices.Clone(steps), st: ev.State()})
				emit(ctx, &StepEvent{Op: "step", Step: steps[len(steps)-1]})
			}
			return &WhatIfResponse{Steps: steps}, nil
		},
	}, nil
}

func planRewire(req *RewireRequest) (*plan, *apiError) {
	matBefore, aerr := req.Before.materialize()
	if aerr != nil {
		return nil, aerr
	}
	matAfter, aerr := req.After.materialize()
	if aerr != nil {
		return nil, aerr
	}
	canon := mustJSON(req)
	return &plan{
		family: matBefore.digest,
		key:    "rewire:" + digest(canon),
		run: func(ctx context.Context, w *worker) (any, error) {
			rp := jellyfish.PlanRewiring(matBefore.build(), matAfter.build())
			resp := &RewireResponse{
				Remove: make([][2]int, 0, len(rp.Remove)),
				Add:    make([][2]int, 0, len(rp.Add)),
				Moves:  rp.Moves(),
			}
			for _, e := range rp.Remove {
				resp.Remove = append(resp.Remove, [2]int{e.U, e.V})
			}
			for _, e := range rp.Add {
				resp.Add = append(resp.Add, [2]int{e.U, e.V})
			}
			return resp, nil
		},
	}, nil
}
