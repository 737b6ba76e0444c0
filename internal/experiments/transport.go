package experiments

import (
	"fmt"

	"jellyfish/internal/capsearch"
	"jellyfish/internal/flowsim"
	"jellyfish/internal/metrics"
	"jellyfish/internal/parallel"
	"jellyfish/internal/placement"
	"jellyfish/internal/rng"
	"jellyfish/internal/routing"
	"jellyfish/internal/topology"
	"jellyfish/internal/traffic"
)

// compiledTable builds the pattern's table under the named scheme from a
// compiled routing instance, fanning per-source/per-pair computations out
// over workers goroutines. Bit-identical to building from scratch
// (routing.Compiled's contract); repeated builds on one instance pay only
// for pairs and sources it has not seen.
func compiledTable(c *routing.Compiled, pat *traffic.Pattern, scheme string, src *rng.Source, workers int) *routing.Table {
	pairs := routing.PairsForPattern(pat)
	switch scheme {
	case "ecmp64":
		return c.ECMP(pairs, 64, src, workers)
	case "ksp8":
		return c.KShortest(pairs, 8, workers)
	default:
		return c.ECMP(pairs, 8, src, workers)
	}
}

// routeTable builds the table for a pattern under the named scheme on a
// throwaway compiled instance — the one-shot form for call sites that
// use a topology only once.
func routeTable(t *topology.Topology, pat *traffic.Pattern, scheme string, src *rng.Source, workers int) *routing.Table {
	return compiledTable(routing.NewCompiled(t.Graph), pat, scheme, src, workers)
}

// A transportKit is the compiled per-topology transport instance shared
// across an experiment's trials: one routing.Compiled (thread-safe,
// memoizes k-shortest path sets and ECMP source state) plus one
// flowsim.Sim per parallel worker slot (exclusive scratch — see
// parallel.ForEachWorker's contract). Trials fanned out with
// parallel.MapWorker index sims by worker id; results are bit-identical
// to fresh per-trial state for every worker count.
type transportKit struct {
	top      *topology.Topology
	srv      []int // server→switch map, computed once, read-only across workers
	compiled *routing.Compiled
	sims     []*flowsim.Sim
}

func newTransportKit(top *topology.Topology, workers int) *transportKit {
	k := &transportKit{
		top:      top,
		srv:      top.ServerSwitches(),
		compiled: routing.NewCompiled(top.Graph),
		sims:     make([]*flowsim.Sim, parallel.Workers(workers)),
	}
	for i := range k.sims {
		k.sims[i] = flowsim.NewSim(top.Graph.N(), top.NumServers())
	}
	return k
}

// simMean runs one trial of the flow simulator on the kit's topology and
// returns mean per-server throughput, using the given worker slot's
// scratch. Stream-for-stream identical to the pre-kit one-shot simMean:
// "traffic" seeds the permutation, "routes" the table build, and "sim"
// the subflow hashing — except that the "sim" split is never derived for
// MPTCP8, which consumes no randomness (flowsim's stream contract; the
// split would be dead, and dropping it everywhere keeps any future
// consumption from silently shifting pinned streams).
func (k *transportKit) simMean(worker int, scheme string, proto flowsim.Protocol, src *rng.Source) float64 {
	pat := traffic.RandomPermutation(k.srv, src.Split("traffic"))
	table := compiledTable(k.compiled, pat, scheme, src.Split("routes"), 1)
	return k.sims[worker].Simulate(pat.Flows, table, proto, flowsim.SimSource(src, proto)).Mean()
}

// simMean is the one-shot form of transportKit.simMean for topologies
// used in a single trial.
func simMean(t *topology.Topology, scheme string, proto flowsim.Protocol, src *rng.Source, workers int) float64 {
	pat := traffic.RandomPermutation(t.ServerSwitches(), src.Split("traffic"))
	table := routeTable(t, pat, scheme, src.Split("routes"), workers)
	return flowsim.Simulate(pat.Flows, table, proto, flowsim.SimSource(src, proto)).Mean()
}

// table1Sizes returns the fat-tree arity and matching jellyfish server
// count used by Table 1 (686 / 780 in the paper; scaled down for Quick).
func table1Sizes(opt Options) (k, jfServers int) {
	if opt.Quick {
		return 8, 150 // fat-tree 128 servers, 80 switches
	}
	return 14, 780 // fat-tree 686 servers, 245 switches
}

// Fig9ECMPPathCounts reproduces Fig. 9: the number of distinct paths each
// directed link participates in, ranked, under 8-way ECMP, 64-way ECMP,
// and 8-shortest-path routing, on the Jellyfish of Table 1.
func Fig9ECMPPathCounts(opt Options) *Table {
	k, jfServers := table1Sizes(opt)
	switches := 5 * k * k / 4
	src := rng.New(opt.Seed).Split("fig9")
	jf := spread(switches, k, jfServers, src.Split("topo"))
	pat := traffic.RandomPermutation(jf.ServerSwitches(), src.Split("traffic"))

	schemes := []string{"ecmp8", "ecmp64", "ksp8"}
	compiled := routing.NewCompiled(jf.Graph)
	ranked := parallel.Map(opt.workers(), len(schemes), func(i int) []int {
		scheme := schemes[i]
		return routing.RankedLinkLoads(jf.Graph, compiledTable(compiled, pat, scheme, src.Split(scheme), opt.workers()))
	})
	series := map[string][]int{}
	for i, scheme := range schemes {
		series[scheme] = ranked[i]
	}
	t := &Table{
		ID:      "fig9",
		Title:   fmt.Sprintf("distinct paths per directed link (ranked), jellyfish %d servers", jfServers),
		Columns: []string{"percentile", "ecmp8", "ecmp64", "ksp8"},
	}
	n := len(series["ecmp8"])
	for _, pct := range []int{0, 10, 25, 50, 75, 90, 100} {
		idx := pct * (n - 1) / 100
		t.AddRow(fmt.Sprintf("p%d", pct), series["ecmp8"][idx], series["ecmp64"][idx], series["ksp8"][idx])
	}
	// Headline fractions from the paper's text.
	frac := func(xs []int, limit int) float64 {
		c := 0
		for _, x := range xs {
			if x <= limit {
				c++
			}
		}
		return float64(c) / float64(len(xs))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("links on ≤2 paths: ecmp8 %.0f%%, ksp8 %.0f%% (paper: 55%% vs 6%%)",
			100*frac(series["ecmp8"], 2), 100*frac(series["ksp8"], 2)))
	return t
}

// Table1RoutingCongestion reproduces Table 1: mean per-server throughput
// (% of NIC rate) for the fat-tree under ECMP and Jellyfish under ECMP and
// 8-shortest paths, each with TCP 1-flow, TCP 8-flow, and MPTCP transport.
// Both topologies are compiled once; the three protocols and all trials
// share the two routing instances and per-worker simulator scratch.
func Table1RoutingCongestion(opt Options) *Table {
	k, jfServers := table1Sizes(opt)
	src := rng.New(opt.Seed).Split("table1")
	trials := opt.trials(5)
	ft := topology.FatTree(k)
	jf := spread(ft.NumSwitches(), k, jfServers, src.Split("jf"))

	t := &Table{
		ID:      "table1",
		Title:   fmt.Sprintf("throughput %% of NIC: fat-tree(%d srv, ECMP) vs jellyfish(%d srv, ECMP / 8SP)", ft.NumServers(), jfServers),
		Columns: []string{"congestion_control", "ft_ecmp", "jf_ecmp", "jf_8sp"},
	}
	w := opt.workers()
	ftKit := newTransportKit(ft, w)
	jfKit := newTransportKit(jf, w)
	protos := []flowsim.Protocol{flowsim.TCP1, flowsim.TCP8, flowsim.MPTCP8}
	for _, proto := range protos {
		perTrial := parallel.MapWorker(w, trials, func(worker, i int) [3]float64 {
			tsrc := src.SplitN(proto.String(), i)
			return [3]float64{
				ftKit.simMean(worker, "ecmp8", proto, tsrc.Split("ft")) / float64(trials),
				jfKit.simMean(worker, "ecmp8", proto, tsrc.Split("jfe")) / float64(trials),
				jfKit.simMean(worker, "ksp8", proto, tsrc.Split("jfk")) / float64(trials),
			}
		})
		var ftv, jfe, jfk float64
		for _, v := range perTrial {
			ftv += v[0]
			jfe += v[1]
			jfk += v[2]
		}
		t.AddRow(proto.String(),
			fmt.Sprintf("%.1f%%", 100*ftv), fmt.Sprintf("%.1f%%", 100*jfe), fmt.Sprintf("%.1f%%", 100*jfk))
	}
	t.Notes = append(t.Notes,
		"paper row MPTCP: fat-tree 93.6%, jellyfish ECMP 76.4%, jellyfish 8SP 95.1% — ECMP lacks path diversity on jellyfish")
	return t
}

// fig10Config builds the slightly-oversubscribed Jellyfish used by
// Fig. 10: 12-port switches, 4 servers each (r=8).
func fig10Config(servers int, src *rng.Source) *topology.Topology {
	switches := (servers + 3) / 4
	return spread(switches, 12, servers, src)
}

// Fig10SimVsOptimal reproduces Fig. 10: flow-level (packet-substitute)
// throughput vs optimal-routing throughput on the same topologies.
func Fig10SimVsOptimal(opt Options) *Table {
	sizes := []int{70, 165, 335, 600, 960}
	if opt.Quick {
		sizes = []int{70, 165}
	}
	src := rng.New(opt.Seed).Split("fig10")
	trials := opt.trials(3)
	t := &Table{
		ID:      "fig10",
		Title:   "k-shortest-path + MPTCP vs optimal routing (same topologies)",
		Columns: []string{"servers", "optimal", "packet_level", "ratio"},
	}
	w := opt.workers()
	results := parallel.Map(w, len(sizes), func(si int) [2]float64 {
		s := sizes[si]
		perTrial := parallel.Map(w, trials, func(i int) [2]float64 {
			tsrc := src.SplitN(fmt.Sprintf("s%d", s), i)
			jf := fig10Config(s, tsrc.Split("topo"))
			return [2]float64{
				mcfThroughput(jf, tsrc.Split("mcf"), 1),
				simMean(jf, "ksp8", flowsim.MPTCP8, tsrc.Split("pkt"), 1),
			}
		})
		var optSum, pktSum float64
		for _, v := range perTrial {
			optSum += v[0]
			pktSum += v[1]
		}
		return [2]float64{optSum / float64(trials), pktSum / float64(trials)}
	})
	for si, s := range sizes {
		o, p := results[si][0], results[si][1]
		t.AddRow(s, o, p, p/o)
	}
	t.Notes = append(t.Notes, "paper: packet-level reaches 86-90% of the CPLEX optimum at every size")
	return t
}

// packetLevelMaxServers binary-searches the servers jellyfish supports at
// ≥ the fat-tree's packet-level throughput (Fig. 11 methodology).
//
// The search reuses the capacity-search machinery (DESIGN.md §9/§11):
// probes draw from one incrementally grown topology family — pure by
// absolute server index, so the topology at a given count is independent
// of probe order (Fig. 6 licenses incremental ≈ scratch) — under nested
// cyclic-permutation traffic whose permutation at s+1 servers extends the
// one at s. The warm assets carried across the binary-search sequence are
// the per-worker compiled simulator instances (arena + scratch survive
// probe-to-probe) and, within each probe, one compiled routing instance
// shared by all trials. Routing is not carried across probes: each probe
// compiles a fresh routing instance for its topology, so every probe
// recomputes the k-shortest paths of all its pairs.
func packetLevelMaxServers(k int, trials int, src *rng.Source, workers int) (ftServers, jfServers int, ftTp float64) {
	ft := topology.FatTree(k)
	ftServers = ft.NumServers()
	ftKit := newTransportKit(ft, workers)
	ftVals := parallel.MapWorker(workers, trials, func(worker, i int) float64 {
		return ftKit.simMean(worker, "ecmp8", flowsim.MPTCP8, src.SplitN("ft", i)) / float64(trials)
	})
	for _, v := range ftVals {
		ftTp += v
	}
	switches := ft.NumSwitches()
	// Search down from half the fat-tree's size so that configurations
	// where jellyfish cannot quite match the fat-tree (small k, weak
	// network degree) still report their true maximum.
	lo, hi := ftServers/2, switches*(k-1)
	fam := capsearch.NewFamily(spread(switches, k, lo, src.SplitN("topo", lo)), src.Split("grow"))
	trafficSrc := src.Split("cycle")
	sims := make([]*flowsim.Sim, parallel.Workers(workers))
	for i := range sims {
		sims[i] = flowsim.NewSim(switches, hi)
	}
	feasible := func(servers int) bool {
		if servers > hi {
			return false
		}
		top := fam.At(servers)
		assign := fam.Assign(servers)
		compiled := routing.NewCompiled(top.Graph)
		vals := parallel.MapWorker(workers, trials, func(worker, i int) float64 {
			pat := traffic.NestedCycle(assign, trafficSrc.SplitN("trial", i))
			table := compiledTable(compiled, pat, "ksp8", nil, 1)
			return sims[worker].Simulate(pat.Flows, table, flowsim.MPTCP8, nil).Mean() / float64(trials)
		})
		tp := 0.0
		for _, v := range vals {
			tp += v
		}
		return tp >= ftTp
	}
	jfServers = maxServersFullCapacity(lo, hi, feasible)
	return ftServers, jfServers, ftTp
}

// Fig11PacketLevelServers reproduces Fig. 11: servers supported at the
// same-or-higher packet-level throughput than the same-equipment fat-tree.
func Fig11PacketLevelServers(opt Options) *Table {
	// The paper's packet-level sweep starts near k=8; at k=6 the random
	// graph's network degree (≤3) is too weak to beat a full-bisection
	// fat-tree under realizable routing.
	ks := []int{8, 10, 12, 14}
	if opt.Quick {
		ks = []int{10}
	}
	src := rng.New(opt.Seed).Split("fig11")
	trials := opt.trials(3)
	t := &Table{
		ID:      "fig11",
		Title:   "servers at equal packet-level throughput vs equipment cost",
		Columns: []string{"k", "total_ports", "ft_servers", "ft_throughput", "jf_servers", "improvement"},
	}
	type kRow struct {
		ftServers, jfServers int
		ftTp                 float64
	}
	w := opt.workers()
	rows := parallel.Map(w, len(ks), func(i int) kRow {
		k := ks[i]
		ksrc := src.Split(fmt.Sprintf("k%d", k))
		ftServers, jfServers, ftTp := packetLevelMaxServers(k, trials, ksrc, w)
		return kRow{ftServers, jfServers, ftTp}
	})
	for i, k := range ks {
		r := rows[i]
		t.AddRow(k, 5*k*k/4*k, r.ftServers, r.ftTp, r.jfServers,
			fmt.Sprintf("%.1f%%", 100*(float64(r.jfServers)/float64(r.ftServers)-1)))
	}
	t.Notes = append(t.Notes, "paper: >25% more servers at the largest scale (3,330 vs 2,662), ≈15% at small scale")
	return t
}

// Fig12Stability reproduces Fig. 12: average/min/max per-server throughput
// across runs for jellyfish and fat-tree at matched equipment.
func Fig12Stability(opt Options) *Table {
	ks := []int{6, 8, 10, 12, 14}
	jfExtra := 1.13 // jellyfish carries ~13% more servers, per Fig. 11
	if opt.Quick {
		ks = []int{4, 6}
	}
	src := rng.New(opt.Seed).Split("fig12")
	trials := opt.trials(5)
	t := &Table{
		ID:      "fig12",
		Title:   "throughput stability across runs (avg [min,max])",
		Columns: []string{"k", "topology", "servers", "avg", "min", "max"},
	}
	w := opt.workers()
	type kSeries struct {
		ftServers, jfServers int
		ftv, jfv             []float64
	}
	series := parallel.Map(w, len(ks), func(i int) kSeries {
		k := ks[i]
		ksrc := src.Split(fmt.Sprintf("k%d", k))
		ft := topology.FatTree(k)
		ftKit := newTransportKit(ft, w) // fixed across trials; jf is redrawn per trial
		jfServers := int(float64(ft.NumServers()) * jfExtra)
		perTrial := parallel.MapWorker(w, trials, func(worker, i int) [2]float64 {
			tsrc := ksrc.SplitN("trial", i)
			ftTp := ftKit.simMean(worker, "ecmp8", flowsim.MPTCP8, tsrc.Split("ft"))
			jf := spread(ft.NumSwitches(), k, jfServers, tsrc.Split("jf-topo"))
			return [2]float64{ftTp, simMean(jf, "ksp8", flowsim.MPTCP8, tsrc.Split("jf"), 1)}
		})
		s := kSeries{ftServers: ft.NumServers(), jfServers: jfServers}
		for _, v := range perTrial {
			s.ftv = append(s.ftv, v[0])
			s.jfv = append(s.jfv, v[1])
		}
		return s
	})
	for i, k := range ks {
		s := series[i]
		fs, js := metrics.Summarize(s.ftv), metrics.Summarize(s.jfv)
		t.AddRow(k, "fattree", s.ftServers, fs.Mean, fs.Min, fs.Max)
		t.AddRow(k, "jellyfish", s.jfServers, js.Mean, js.Min, js.Max)
	}
	t.Notes = append(t.Notes, "paper: jellyfish is as stable as the fat-tree (min/max within a few percent of the mean)")
	return t
}

// Fig13Fairness reproduces Fig. 13: the ranked distribution of per-flow
// throughputs and Jain's fairness index for jellyfish and fat-tree.
func Fig13Fairness(opt Options) *Table {
	k, jfServers := table1Sizes(opt)
	src := rng.New(opt.Seed).Split("fig13")
	ft := topology.FatTree(k)
	jf := spread(ft.NumSwitches(), k, jfServers, src.Split("jf"))

	w := opt.workers()
	run := func(top *topology.Topology, scheme string, s *rng.Source) []float64 {
		pat := traffic.RandomPermutation(top.ServerSwitches(), s.Split("traffic"))
		table := routeTable(top, pat, scheme, s.Split("routes"), w)
		// MPTCP8 consumes no randomness; no dead "sim" split (flowsim's
		// stream contract).
		return flowsim.Simulate(pat.Flows, table, flowsim.MPTCP8, nil).FlowRate
	}
	rates := parallel.Map(w, 2, func(i int) []float64 {
		if i == 0 {
			return run(ft, "ecmp8", src.Split("ft"))
		}
		return run(jf, "ksp8", src.Split("jf-run"))
	})
	ftRates, jfRates := rates[0], rates[1]

	t := &Table{
		ID:      "fig13",
		Title:   "flow-throughput distribution (ranked percentiles) and Jain fairness",
		Columns: []string{"percentile", "fattree", "jellyfish"},
	}
	for _, pct := range []float64{1, 5, 10, 25, 50, 75, 90, 99} {
		t.AddRow(fmt.Sprintf("p%.0f", pct),
			metrics.Percentile(ftRates, pct), metrics.Percentile(jfRates, pct))
	}
	t.AddRow("jain", metrics.JainFairness(ftRates), metrics.JainFairness(jfRates))
	t.Notes = append(t.Notes, "paper: Jain's index 0.991 (fat-tree) vs 0.988 (jellyfish) — both ≈99% fair")
	return t
}

// Fig14Locality reproduces Fig. 14: throughput of 2-layer
// (locality-constrained) Jellyfish normalized to unrestricted Jellyfish,
// as the fraction of in-pod links varies, at four sizes.
func Fig14Locality(opt Options) *Table {
	type size struct{ containers, spc int }
	sizes := []size{{5, 8}, {6, 15}, {9, 20}, {10, 24}} // 160..960 servers at 4/switch
	fracs := []float64{0, 0.2, 0.4, 0.5, 0.6, 0.8}
	if opt.Quick {
		sizes = sizes[:1]
		fracs = []float64{0, 0.4, 0.8}
	}
	k, r := 12, 8
	trials := opt.trials(3)
	src := rng.New(opt.Seed).Split("fig14")
	t := &Table{
		ID:      "fig14",
		Title:   "2-layer jellyfish: throughput (normalized to unrestricted) vs fraction of local links",
		Columns: []string{"servers", "local_frac", "throughput", "normalized"},
	}
	w := opt.workers()
	type szResult struct {
		servers int
		base    float64
		tps     []float64 // one per frac
	}
	results := parallel.Map(w, len(sizes), func(si int) szResult {
		sz := sizes[si]
		servers := sz.containers * sz.spc * (k - r)
		ssrc := src.Split(fmt.Sprintf("s%d", servers))
		base := parallel.SumFloat64(w, trials, func(i int) float64 {
			unrestricted := placement.TwoLayerJellyfish(sz.containers, sz.spc, k, r, 0, ssrc.SplitN("base", i))
			return mcfThroughput(unrestricted, ssrc.SplitN("base-traffic", i), 1) / float64(trials)
		})
		// One worker-wide level over the flattened (frac, trial) space;
		// per-frac sums accumulate in trial order, so the result matches
		// the nested sequential loops bit for bit.
		perTrial := parallel.Map(w, len(fracs)*trials, func(idx int) float64 {
			f := fracs[idx/trials]
			i := idx % trials
			top := placement.TwoLayerJellyfish(sz.containers, sz.spc, k, r, f, ssrc.SplitN(fmt.Sprintf("f%.1f", f), i))
			return mcfThroughput(top, ssrc.SplitN(fmt.Sprintf("f%.1f-traffic", f), i), 1) / float64(trials)
		})
		tps := make([]float64, len(fracs))
		for fi := range fracs {
			for i := 0; i < trials; i++ {
				tps[fi] += perTrial[fi*trials+i]
			}
		}
		return szResult{servers, base, tps}
	})
	for _, res := range results {
		for fi, f := range fracs {
			tp := res.tps[fi]
			norm := 1.0
			if res.base > 0 {
				norm = tp / res.base
			}
			t.AddRow(res.servers, fmt.Sprintf("%.1f", f), tp, norm)
		}
	}
	t.Notes = append(t.Notes,
		"paper: ≤6% throughput loss with 60% of links localized; <3% at 50% local — above the fat-tree's 53.6% locality")
	return t
}
