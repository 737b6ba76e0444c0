package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"

	"jellyfish"
	"jellyfish/internal/flowsim"
	"jellyfish/internal/rng"
	"jellyfish/internal/routing"
	"jellyfish/internal/service"
	"jellyfish/internal/traffic"
)

// callLayers computes a request's answer in-process by calling, in the
// order the daemon's executor does, the exported entry point of each
// layer below the service, each call under a span. With got set it also
// checks the daemon's answer against the library's.
func callLayers(tr *tracer, q int, r *request, got []byte) error {
	body := r.bytes()
	switch r.class {
	case "design", "job.design":
		var d service.DesignSpec
		if err := json.Unmarshal(body, &d); err != nil {
			return err
		}
		top, err := readTopology(tr, q, service.TopologySpec{Design: &d})
		if err != nil {
			return err
		}
		var st jellyfish.PathStats
		tr.do("graph.pathstats", q, func() { st = top.SwitchPathStats() })
		var bp bytes.Buffer
		id := tr.begin("topology.blueprint_encode", q)
		err = jellyfish.WriteBlueprint(top, &bp)
		tr.end(id)
		if id >= 0 {
			tr.spans[id].kb = float64(bp.Len()) / 1024
		}
		if err != nil || got == nil {
			return err
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, bp.Bytes()); err != nil {
			return err
		}
		want, err := json.Marshal(service.DesignResponse{
			Switches: top.NumSwitches(), Servers: top.NumServers(), Links: top.NumLinks(),
			MeanPath: st.Mean, Diameter: st.Diameter, Blueprint: compact.Bytes(),
		})
		if err == nil && !bytes.Equal(want, got) {
			err = fmt.Errorf("design differs from jellyfish.New + SwitchPathStats + WriteBlueprint")
		}
		return err
	case "evaluate.optimal", "evaluate.transport", "evaluate.estimator":
		var req service.EvaluateRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		top, err := readTopology(tr, q, req.Topology)
		if err != nil {
			return err
		}
		var bounds [][2]float64
		var lam float64
		switch {
		case req.Estimator != nil:
			var hi float64
			tr.do("estimate."+req.Estimator.Kind, q, func() {
				lam, hi, err = jellyfish.EstimateThroughput(top, req.Estimator.Kind, req.Estimator.Sample, req.Seed)
			})
			bounds = [][2]float64{{lam, hi}}
		case req.Transport != nil:
			lam = transportTrial(tr, q, top, req.Transport, req.Seed)
		default:
			tr.do("mcf.optimal", q, func() { lam = jellyfish.OptimalThroughput(top, req.Seed, 1) })
		}
		if err != nil || got == nil {
			return err
		}
		var resp service.EvaluateResponse
		if err := json.Unmarshal(got, &resp); err != nil {
			return err
		}
		if !slices.Equal(resp.Throughputs, []float64{lam}) || !slices.Equal(resp.Bounds, bounds) {
			return fmt.Errorf("throughputs %v bounds %v; the library gives %v %v", resp.Throughputs, resp.Bounds, lam, bounds)
		}
	case "whatif":
		var req service.WhatIfRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		top, err := readTopology(tr, q, req.Base)
		if err != nil {
			return err
		}
		ev := jellyfish.NewWhatIfEvaluator(1)
		var steps []float64
		tr.do("mcf.whatif", q, func() { steps = append(steps, ev.OptimalThroughput(top, req.Seed)) })
		for _, sc := range req.Scenarios {
			tr.do("topology.scenario", q, func() { applyScenario(top, sc) })
			tr.do("mcf.whatif", q, func() { steps = append(steps, ev.OptimalThroughput(top, req.Seed)) })
		}
		if got == nil {
			return nil
		}
		var resp service.WhatIfResponse
		if err := json.Unmarshal(got, &resp); err != nil {
			return err
		}
		var have []float64
		for _, st := range resp.Steps {
			have = append(have, st.Throughput)
		}
		if !slices.Equal(have, steps) {
			return fmt.Errorf("what-if throughputs %v; WhatIfEvaluator gives %v", have, steps)
		}
	case "rewire-plan":
		var req service.RewireRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		before, err := readTopology(tr, q, req.Before)
		if err != nil {
			return err
		}
		after, err := readTopology(tr, q, req.After)
		if err != nil {
			return err
		}
		var plan jellyfish.RewirePlan
		tr.do("topology.rewire", q, func() { plan = jellyfish.PlanRewiring(before, after) })
		if got == nil {
			return nil
		}
		var resp service.RewireResponse
		if err := json.Unmarshal(got, &resp); err != nil {
			return err
		}
		pairs := func(es []jellyfish.Edge) [][2]int {
			out := make([][2]int, len(es))
			for i, e := range es {
				out[i] = [2]int{e.U, e.V}
			}
			return out
		}
		if resp.Moves != plan.Moves() || !slices.Equal(resp.Remove, pairs(plan.Remove)) || !slices.Equal(resp.Add, pairs(plan.Add)) {
			return fmt.Errorf("rewire plan differs from PlanRewiring")
		}
	case "capacity-search", "job.capacity-search":
		var req service.CapacitySearchRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		cs := capacitySearch(req)
		var fam *jellyfish.SearchFamily
		var err error
		tr.do("capsearch.family_build", q, func() { fam, err = cs.NewFamily() })
		if err != nil {
			return err
		}
		var max int
		tr.do("capsearch.run", q, func() { max, err = cs.RunOnFamily(fam, nil) })
		if err != nil || got == nil {
			return err
		}
		var resp service.CapacitySearchResponse
		if err := json.Unmarshal(got, &resp); err != nil {
			return err
		}
		if resp.MaxServers != max {
			return fmt.Errorf("maxServers %d; CapacitySearch gives %d", resp.MaxServers, max)
		}
	default:
		return fmt.Errorf("no in-process form for op class %q", r.class)
	}
	return nil
}

// capacitySearch is the library's form of a capacity-search request,
// with the service's defaults (3 trials, slack 0.03) and one solver
// worker (answers are identical for every worker count).
func capacitySearch(req service.CapacitySearchRequest) jellyfish.CapacitySearch {
	cs := jellyfish.CapacitySearch{Switches: req.Switches, Ports: req.Ports, Trials: req.Trials, Slack: req.Slack, Seed: req.Seed, Workers: 1}
	if cs.Trials == 0 {
		cs.Trials = 3
	}
	if cs.Slack == 0 {
		cs.Slack = 0.03
	}
	return cs
}

// readTopology materializes a topology spec under a span: a design is
// built, a blueprint decoded.
func readTopology(tr *tracer, q int, ts service.TopologySpec) (top *jellyfish.Topology, err error) {
	if ts.Design != nil {
		d := ts.Design
		tr.do("topology.build", q, func() {
			top = jellyfish.New(jellyfish.Config{Switches: d.Switches, Ports: d.Ports, NetworkDegree: d.NetworkDegree, Seed: d.Seed})
		})
		return top, nil
	}
	id := tr.begin("topology.blueprint_decode", q)
	top, err = jellyfish.ReadBlueprint(bytes.NewReader(ts.Blueprint))
	tr.end(id)
	if id >= 0 {
		tr.spans[id].kb = float64(len(ts.Blueprint)) / 1024
	}
	return top, err
}

// transportTrial runs one flow-level transport trial the way the
// daemon's evaluate executor does: route tables compiled for the
// topology, then the flow simulator over a random permutation.
func transportTrial(tr *tracer, q int, top *jellyfish.Topology, spec *service.TransportSpec, seed uint64) float64 {
	src := rng.New(seed).Split("transport")
	pat := traffic.RandomPermutation(top.ServerSwitches(), src.Split("traffic"))
	var table *routing.Table
	tr.do("routing.compile", q, func() {
		compiled := routing.NewCompiled(top.Graph)
		pairs := routing.PairsForPattern(pat)
		switch spec.Routing {
		case "ecmp8":
			table = compiled.ECMP(pairs, 8, src.Split("routes"), 1)
		case "ecmp64":
			table = compiled.ECMP(pairs, 64, src.Split("routes"), 1)
		default:
			table = compiled.KShortest(pairs, 8, 1)
		}
	})
	proto := map[string]flowsim.Protocol{"tcp1": flowsim.TCP1, "tcp8": flowsim.TCP8, "mptcp8": flowsim.MPTCP8}[spec.Protocol]
	var lam float64
	tr.do("flowsim.simulate", q, func() {
		sim := flowsim.NewSim(0, top.NumServers())
		lam = sim.Simulate(pat.Flows, table, proto, flowsim.SimSource(src, proto)).Mean()
	})
	return lam
}

func applyScenario(top *jellyfish.Topology, sc service.Scenario) {
	switch {
	case sc.FailLinks != nil:
		jellyfish.FailRandomLinks(top, sc.FailLinks.Fraction, sc.FailLinks.Seed)
	case sc.FailSwitches != nil:
		jellyfish.FailRandomSwitches(top, sc.FailSwitches.Fraction, sc.FailSwitches.Seed)
	case sc.Miswire != nil:
		jellyfish.SimulateMiswirings(top, sc.Miswire.Count, sc.Miswire.Seed)
	case sc.Expand != nil:
		e := sc.Expand
		jellyfish.Expand(top, e.Switches, e.Ports, e.NetworkDegree, e.Seed)
	}
}
