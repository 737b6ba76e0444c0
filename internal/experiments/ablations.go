package experiments

import (
	"context"
	"fmt"

	"jellyfish/internal/capsearch"
	"jellyfish/internal/flowsim"
	"jellyfish/internal/mcf"
	"jellyfish/internal/metrics"
	"jellyfish/internal/packetsim"
	"jellyfish/internal/parallel"
	"jellyfish/internal/rng"
	"jellyfish/internal/routing"
	"jellyfish/internal/topology"
	"jellyfish/internal/traffic"
)

// Ablations beyond the paper's figures, probing the design choices
// DESIGN.md calls out and the extensions §4.2/§7 sketch as future work:
// the k in k-shortest paths, the oversubscription dial, heterogeneous
// expansion, and resilience under realizable (not optimal) routing.

// AblationRoutingK sweeps the k of k-shortest-path routing with MPTCP:
// how much path diversity is enough? (The paper fixes k=8.)
func AblationRoutingK(opt Options) *Table {
	n, ports, deg := 60, 12, 9
	if !opt.Quick {
		n, ports, deg = 125, 10, 8
	}
	src := rng.New(opt.Seed).Split("ablation-k")
	top := topology.Jellyfish(n, ports, deg, src.Split("topo"))
	pat := traffic.RandomPermutation(top.ServerSwitches(), src.Split("traffic"))
	var sd [][2]int
	for _, f := range pat.Flows {
		sd = append(sd, [2]int{f.SrcSwitch, f.DstSwitch})
	}
	pairs := routing.PairsForCommodities(sd)

	t := &Table{
		ID:      "ablation-routing-k",
		Title:   fmt.Sprintf("throughput vs k in k-shortest-path routing (MPTCP, %d servers)", top.NumServers()),
		Columns: []string{"k", "throughput"},
	}
	ks := []int{1, 2, 4, 8, 16}
	w := opt.workers()
	tps := parallel.Map(w, len(ks), func(i int) float64 {
		k := ks[i]
		table := routing.KShortest(top.Graph, pairs, k, w)
		// MPTCP8 consumes no randomness; no dead "sim" split (flowsim's
		// stream contract).
		return flowsim.Simulate(pat.Flows, table, flowsim.MPTCP8, nil).Mean()
	})
	for i, k := range ks {
		t.AddRow(k, tps[i])
	}
	t.Notes = append(t.Notes, "diminishing returns past k≈8 justify the paper's choice")
	return t
}

// AblationOversubscription sweeps the servers-per-switch dial on a fixed
// switch pool — the "great flexibility in degrees of oversubscription" the
// paper's abstract claims. The dial is swept incrementally: one topology
// family grown a server per switch at a time (adjacent points share most
// cables), with the solver warm-started from the previous point in sweep
// order. Options.ColdStart keeps the identical sweep but solves each
// point from scratch.
func AblationOversubscription(opt Options) *Table {
	n, ports := 60, 12
	if !opt.Quick {
		n, ports = 125, 12
	}
	src := rng.New(opt.Seed).Split("ablation-over")
	t := &Table{
		ID:      "ablation-oversubscription",
		Title:   fmt.Sprintf("throughput vs servers per switch (%d %d-port switches)", n, ports),
		Columns: []string{"servers_per_switch", "servers", "net_degree", "throughput"},
	}
	var srvs []int
	for srv := 1; srv <= ports-3; srv++ {
		if ports-srv < n {
			srvs = append(srvs, srv)
		}
	}
	w := opt.workers()
	base := topology.Jellyfish(n, ports, ports-srvs[0], src.SplitN("topo", srvs[0]))
	fam := capsearch.NewFamily(base, src.Split("grow"))
	sv := mcf.NewSolver(mcf.Options{Workers: w})
	var st *mcf.State
	tps := make([]float64, len(srvs))
	var srvBuf []int // reused across the chain; each pattern dies with its probe
	for i, srv := range srvs {
		top := fam.At(n * srv)
		srvBuf = top.ServerSwitchesInto(srvBuf)
		pat := traffic.RandomPermutation(srvBuf, src.SplitN("traffic", srv))
		if opt.ColdStart {
			st = nil
		}
		var res mcf.Result
		res, st = sv.Solve(context.Background(), top.Graph, pat.Commodities(), st)
		tps[i] = metrics.Clamp01(res.Lambda)
	}
	for i, srv := range srvs {
		t.AddRow(srv, n*srv, ports-srv, tps[i])
	}
	t.Notes = append(t.Notes, "a continuous design space: capacity trades smoothly against server count")
	return t
}

// AblationHeterogeneousExpansion grows a legacy network with bigger
// switches and checks that capacity scales with the added port count —
// the §4.2 heterogeneous-expansion scenario.
func AblationHeterogeneousExpansion(opt Options) *Table {
	base, basePorts := 40, 12
	if !opt.Quick {
		base, basePorts = 80, 12
	}
	srv := 4
	src := rng.New(opt.Seed).Split("ablation-hetero")
	t := &Table{
		ID:      "ablation-heterogeneous",
		Title:   "heterogeneous expansion: adding higher-port switches to a legacy fabric",
		Columns: []string{"new_switches", "new_ports", "servers", "mean_path", "throughput"},
	}
	configs := []struct{ count, ports int }{{0, 0}, {10, 16}, {10, 24}, {20, 24}}
	w := opt.workers()
	type hetRow struct {
		servers  int
		meanPath float64
		tp       float64
	}
	rows := parallel.Map(w, len(configs), func(ci int) hetRow {
		newer := configs[ci]
		ports := make([]int, base+newer.count)
		servers := make([]int, base+newer.count)
		for i := 0; i < base; i++ {
			ports[i], servers[i] = basePorts, srv
		}
		for i := base; i < len(ports); i++ {
			ports[i], servers[i] = newer.ports, srv*2
		}
		top := topology.JellyfishHeterogeneous(ports, servers, src.SplitN(fmt.Sprintf("p%d", newer.ports), newer.count))
		tp := mcfThroughput(top, src.SplitN(fmt.Sprintf("t%d", newer.ports), newer.count), 1)
		return hetRow{top.NumServers(), top.SwitchPathStats().Mean, tp}
	})
	for ci, newer := range configs {
		r := rows[ci]
		t.AddRow(newer.count, newer.ports, r.servers, r.meanPath, r.tp)
	}
	t.Notes = append(t.Notes, "newer high-port switches integrate without restructuring and add usable capacity")
	return t
}

// AblationFailuresRealizableRouting re-runs the Fig. 8 resilience sweep
// under the realizable data plane (kSP-8 + MPTCP) instead of optimal
// routing: do failures hurt more when routing is imperfect?
func AblationFailuresRealizableRouting(opt Options) *Table {
	n, ports, servers := 60, 12, 180
	if !opt.Quick {
		n, ports, servers = 125, 10, 250
	}
	src := rng.New(opt.Seed).Split("ablation-fail")
	trials := opt.trials(3)
	t := &Table{
		ID:      "ablation-failures-routing",
		Title:   "link failures under kSP-8 + MPTCP (realizable routing)",
		Columns: []string{"fail_frac", "throughput", "vs_healthy"},
	}
	fracs := []float64{0, 0.05, 0.10, 0.15, 0.20}
	w := opt.workers()
	tps := parallel.Map(w, len(fracs), func(fi int) float64 {
		f := fracs[fi]
		return parallel.SumFloat64(w, trials, func(i int) float64 {
			tsrc := src.SplitN(fmt.Sprintf("f%.2f", f), i)
			top := spread(n, ports, servers, tsrc.Split("topo"))
			topology.RemoveRandomLinks(top, f, tsrc.Split("fail"))
			return simMean(top, "ksp8", flowsim.MPTCP8, tsrc.Split("sim"), 1) / float64(trials)
		})
	})
	healthy := tps[0]
	for fi, f := range fracs {
		rel := 1.0
		if healthy > 0 {
			rel = tps[fi] / healthy
		}
		t.AddRow(fmt.Sprintf("%.2f", f), tps[fi], rel)
	}
	t.Notes = append(t.Notes, "routes are recomputed on the failed topology: kSP routing sees failures as just another random graph")
	return t
}

// AblationSwitchFailures sweeps whole-switch failures (§4.3 mentions node
// failures alongside link failures): surviving servers keep most of their
// throughput because a random graph minus random nodes is again a random
// graph.
func AblationSwitchFailures(opt Options) *Table {
	n, ports, deg := 60, 12, 8
	if !opt.Quick {
		n, ports, deg = 136, 12, 8
	}
	src := rng.New(opt.Seed).Split("ablation-node-fail")
	trials := opt.trials(3)
	t := &Table{
		ID:      "ablation-switch-failures",
		Title:   "whole-switch failures: throughput of surviving servers (optimal routing)",
		Columns: []string{"fail_frac", "surviving_servers", "throughput"},
	}
	fracs := []float64{0, 0.05, 0.10, 0.20}
	w := opt.workers()
	// Each trial builds one topology and fails a nested set of switches
	// (one permutation prefix per fraction), so adjacent fractions differ
	// only by the newly failed switches' links — the solver warm-starts
	// across the sweep, and the common-random-numbers structure removes
	// between-point topology noise from the degradation curve.
	type trialOut struct {
		surv []int
		tp   []float64
	}
	perTrial := parallel.Map(w, trials, func(i int) trialOut {
		tsrc := src.SplitN("trial", i)
		base := topology.Jellyfish(n, ports, deg, tsrc.Split("topo"))
		perm := tsrc.Split("fail").Perm(n)
		sv := mcf.NewSolver(mcf.Options{Workers: 1})
		var st *mcf.State
		out := trialOut{surv: make([]int, len(fracs)), tp: make([]float64, len(fracs))}
		var srvBuf []int // trial-local: reused across the nested failure chain
		for fi, f := range fracs {
			top := base.Clone()
			topology.FailSwitches(top, perm[:int(f*float64(n))])
			srvBuf = top.ServerSwitchesInto(srvBuf)
			pat := traffic.RandomPermutation(srvBuf, tsrc.SplitN("traffic", fi))
			if opt.ColdStart {
				st = nil
			}
			var res mcf.Result
			res, st = sv.Solve(context.Background(), top.Graph, pat.Commodities(), st)
			out.surv[fi] = top.NumServers()
			out.tp[fi] = metrics.Clamp01(res.Lambda) / float64(trials)
		}
		return out
	})
	for fi, f := range fracs {
		surv, tp := 0, 0.0
		for _, v := range perTrial {
			surv = v.surv[fi] // last trial's survivor count, as before
			tp += v.tp[fi]
		}
		t.AddRow(fmt.Sprintf("%.2f", f), surv, tp)
	}
	t.Notes = append(t.Notes, "graceful degradation extends from links (Fig. 8) to whole switches")
	return t
}

// AblationAllToAll evaluates jellyfish vs fat-tree under uniform
// all-to-all traffic — the traffic-pattern sensitivity the paper leaves to
// future work (§4, footnote on traffic matrices).
func AblationAllToAll(opt Options) *Table {
	k := 8
	if !opt.Quick {
		k = 10
	}
	src := rng.New(opt.Seed).Split("ablation-a2a")
	ft := topology.FatTree(k)
	jf := spread(ft.NumSwitches(), k, ft.NumServers(), src.Split("jf"))

	t := &Table{
		ID:      "ablation-alltoall",
		Title:   fmt.Sprintf("all-to-all traffic, optimal routing, equal equipment (k=%d)", k),
		Columns: []string{"topology", "servers", "throughput"},
	}
	w := opt.workers()
	eval := func(top *topology.Topology) float64 {
		comms := traffic.AllToAll(top.ServerSwitches())
		res := mcf.MaxConcurrentFlow(context.Background(), top.Graph, comms, mcf.Options{Workers: w})
		return metrics.Clamp01(res.Lambda)
	}
	tps := parallel.Map(w, 2, func(i int) float64 {
		if i == 0 {
			return eval(ft)
		}
		return eval(jf)
	})
	t.AddRow("fattree", ft.NumServers(), tps[0])
	t.AddRow("jellyfish", jf.NumServers(), tps[1])
	t.Notes = append(t.Notes, "jellyfish's advantage is not an artifact of permutation traffic")
	return t
}

// AblationPacketVsFluid cross-validates the three evaluation stacks on the
// same topologies: optimal fluid routing (mcf), the max-min flow model
// (flowsim), and the discrete-event AIMD packet simulator (packetsim, the
// htsim stand-in). Agreement between the last two justifies using the
// cheap fluid model for the paper-scale sweeps.
func AblationPacketVsFluid(opt Options) *Table {
	sizes := []int{60, 120}
	if !opt.Quick {
		sizes = []int{60, 120, 240}
	}
	src := rng.New(opt.Seed).Split("ablation-pkt")
	t := &Table{
		ID:      "ablation-packet-vs-fluid",
		Title:   "three evaluation stacks on the same topology (kSP-8 + MPTCP)",
		Columns: []string{"servers", "optimal_mcf", "fluid_flowsim", "packet_des", "des/fluid"},
	}
	w := opt.workers()
	// Build every size's instance first, then run its two costly stages —
	// mcf plus the fluid model, and the DES — as separate tasks on one
	// flat list: task 2·si is size si's mcf and fluid, task 2·si+1 its
	// DES. Workers claim from the end, so the largest size's two tasks
	// start first and the small ones fill in behind them.
	type instance struct {
		tsrc  *rng.Source
		top   *topology.Topology
		pat   *traffic.Pattern
		table *routing.Table
	}
	insts := make([]instance, len(sizes))
	for si, servers := range sizes {
		tsrc := src.Split(fmt.Sprintf("s%d", servers))
		top := spread(servers/3, 12, servers, tsrc.Split("topo"))
		pat := traffic.RandomPermutation(top.ServerSwitches(), tsrc.Split("traffic"))
		insts[si] = instance{tsrc, top, pat, routeTable(top, pat, "ksp8", tsrc.Split("routes"), w)}
	}
	rows := make([][3]float64, len(sizes))
	n := 2 * len(sizes)
	parallel.ForEach(w, n, func(j int) {
		task := n - 1 - j
		in, row := insts[task/2], &rows[task/2]
		if task%2 == 0 {
			row[0] = mcfThroughput(in.top, in.tsrc.Split("mcf"), 1)
			// MPTCP8 consumes no randomness; no dead "fluid" split
			// (flowsim's stream contract).
			row[1] = flowsim.Simulate(in.pat.Flows, in.table, flowsim.MPTCP8, nil).Mean()
			return
		}
		// The DES keeps its stream: uncoupled configs hash routes from it,
		// so the signature stays uniform there.
		row[2] = packetsim.Simulate(in.pat.Flows, in.table,
			packetsim.Config{Subflows: 8, Coupled: true, Horizon: 6000}, in.tsrc.Split("des")).Mean()
	})
	for si, servers := range sizes {
		optimal, fluid, des := rows[si][0], rows[si][1], rows[si][2]
		ratio := 1.0
		if fluid > 0 {
			ratio = des / fluid
		}
		t.AddRow(servers, optimal, fluid, des, ratio)
	}
	t.Notes = append(t.Notes,
		"the DES actually runs AIMD windows over drop-tail queues; agreement with the fluid model validates the DESIGN.md §8 substitution")
	return t
}

// AblationHotspot evaluates resilience to skewed traffic: a growing
// fraction of servers all send toward one hot rack. Random graphs have no
// structural choke point, so degradation tracks the hot rack's own
// capacity rather than collapsing globally.
func AblationHotspot(opt Options) *Table {
	n, ports, deg := 60, 12, 8
	if !opt.Quick {
		n, ports, deg = 125, 12, 8
	}
	src := rng.New(opt.Seed).Split("ablation-hotspot")
	trials := opt.trials(3)
	t := &Table{
		ID:      "ablation-hotspot",
		Title:   fmt.Sprintf("hotspot traffic: fraction of senders targeting one rack (%d switches)", n),
		Columns: []string{"hot_frac", "throughput"},
	}
	fracs := []float64{0, 0.1, 0.2, 0.4}
	w := opt.workers()
	// Each trial sweeps the hot fraction on one fixed topology — the pure
	// commodity-perturbation case for the solver's warm starts: the graph
	// (and so the solver's arc arrays) is reused unchanged across the
	// sweep, only the demand set shifts toward the hot rack.
	perTrial := parallel.Map(w, trials, func(i int) []float64 {
		tsrc := src.SplitN("trial", i)
		top := topology.Jellyfish(n, ports, deg, tsrc.Split("topo"))
		sv := mcf.NewSolver(mcf.Options{Workers: 1})
		var st *mcf.State
		out := make([]float64, len(fracs))
		for fi, f := range fracs {
			pat := traffic.Hotspot(top.ServerSwitches(), 0, f, tsrc.SplitN("traffic", fi))
			if opt.ColdStart {
				st = nil
			}
			var res mcf.Result
			res, st = sv.Solve(context.Background(), top.Graph, pat.Commodities(), st)
			out[fi] = metrics.Clamp01(res.Lambda) / float64(trials)
		}
		return out
	})
	for fi, f := range fracs {
		tp := 0.0
		for _, v := range perTrial {
			tp += v[fi]
		}
		t.AddRow(fmt.Sprintf("%.1f", f), tp)
	}
	t.Notes = append(t.Notes, "concurrent throughput is pinned by the hot rack ingress capacity (r links vs hot demand); the rest of the fabric is unaffected")
	return t
}
