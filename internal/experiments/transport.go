package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"

	"jellyfish/internal/capsearch"
	"jellyfish/internal/flowsim"
	"jellyfish/internal/parallel"
	"jellyfish/internal/placement"
	"jellyfish/internal/rng"
	"jellyfish/internal/routing"
	"jellyfish/internal/topology"
	"jellyfish/internal/traffic"
)

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

// simMean runs one flowsim.Sim.Trial on the kit's topology and returns
// mean per-server throughput, using the given worker slot's scratch.
// Bit-identical to the fresh-state simMean.
func (k *transportKit) simMean(worker int, scheme string, proto flowsim.Protocol, src *rng.Source) float64 {
	return k.sims[worker].Trial(context.Background(), k.compiled, k.srv, scheme, proto, src, 1).Mean()
}

// simMean is transportKit.simMean on fresh state, for topologies used in
// a single trial.
func simMean(t *topology.Topology, scheme string, proto flowsim.Protocol, src *rng.Source, workers int) float64 {
	return new(flowsim.Sim).Trial(context.Background(), routing.NewCompiled(t.Graph), t.ServerSwitches(), scheme, proto, src, workers).Mean()
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
	jf := topology.JellyfishSpread(switches, k, jfServers, src.Split("topo"))
	pat := traffic.RandomPermutation(jf.ServerSwitches(), src.Split("traffic"))

	schemes := []string{"ecmp8", "ecmp64", "ksp8"}
	compiled := routing.NewCompiled(jf.Graph)
	pairs := routing.PairsForPattern(pat)
	ranked := parallel.Map(opt.workers(), len(schemes), func(i int) []int {
		scheme := schemes[i]
		return routing.RankedLinkLoads(jf.Graph, compiled.Table(scheme, pairs, src.Split(scheme), opt.workers()))
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
	jf := topology.JellyfishSpread(ft.NumSwitches(), k, jfServers, src.Split("jf"))

	t := &Table{
		ID:      "table1",
		Title:   fmt.Sprintf("throughput %% of NIC: fat-tree(%d srv, ECMP) vs jellyfish(%d srv, ECMP / 8SP)", ft.NumServers(), jfServers),
		Columns: []string{"congestion_control", "ft_ecmp", "jf_ecmp", "jf_8sp"},
	}
	w := opt.workers()
	ftKit := newTransportKit(ft, w)
	jfKit := newTransportKit(jf, w)
	protos := []flowsim.Protocol{flowsim.TCP1, flowsim.TCP8, flowsim.MPTCP8}
	stacks := []struct {
		kit           *transportKit
		scheme, label string
	}{{ftKit, "ecmp8", "ft"}, {jfKit, "ecmp8", "jfe"}, {jfKit, "ksp8", "jfk"}}
	// One flat task list over every (protocol, trial, stack) cell, laid
	// out in that row-major order. Workers claim from the end, so MPTCP8's
	// cells, the costliest, start first and TCP1's fill in behind them.
	perProto := trials * len(stacks)
	n := len(protos) * perProto
	cells := make([]float64, n)
	parallel.ForEachWorker(w, n, func(worker, j int) {
		c := n - 1 - j
		proto, st := protos[c/perProto], stacks[c%len(stacks)]
		tsrc := src.SplitN(proto.String(), c%perProto/len(stacks))
		cells[c] = st.kit.simMean(worker, st.scheme, proto, tsrc.Split(st.label)) / float64(trials)
	})
	for p, proto := range protos {
		// Each stack's sum runs in trial order, as the serial loop would.
		var sums [3]float64
		for c := p * perProto; c < (p+1)*perProto; c++ {
			sums[c%len(stacks)] += cells[c]
		}
		t.AddRow(proto.String(),
			fmt.Sprintf("%.1f%%", 100*sums[0]), fmt.Sprintf("%.1f%%", 100*sums[1]), fmt.Sprintf("%.1f%%", 100*sums[2]))
	}
	t.Notes = append(t.Notes,
		"paper row MPTCP: fat-tree 93.6%, jellyfish ECMP 76.4%, jellyfish 8SP 95.1% — ECMP lacks path diversity on jellyfish")
	return t
}

// fig10Config builds the slightly-oversubscribed Jellyfish used by
// Fig. 10: 12-port switches, 4 servers each (r=8).
func fig10Config(servers int, src *rng.Source) *topology.Topology {
	switches := (servers + 3) / 4
	return topology.JellyfishSpread(switches, 12, servers, src)
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
	fam := capsearch.NewFamily(topology.JellyfishSpread(switches, k, lo, src.SplitN("topo", lo)), src.Split("grow"))
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
			table := compiled.Table("ksp8", routing.PairsForPattern(pat), nil, 1)
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
	rows := make([]kRow, len(ks))
	// Workers claim k from the end, so the largest (costliest) search
	// starts first.
	parallel.ForEach(w, len(ks), func(j int) {
		i := len(ks) - 1 - j
		ksrc := src.Split(fmt.Sprintf("k%d", ks[i]))
		ftServers, jfServers, ftTp := packetLevelMaxServers(ks[i], trials, ksrc, w)
		rows[i] = kRow{ftServers, jfServers, ftTp}
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
			jf := topology.JellyfishSpread(ft.NumSwitches(), k, jfServers, tsrc.Split("jf-topo"))
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
		fs, js := summarize(s.ftv), summarize(s.jfv)
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
	jf := topology.JellyfishSpread(ft.NumSwitches(), k, jfServers, src.Split("jf"))

	w := opt.workers()
	run := func(top *topology.Topology, scheme string, s *rng.Source) []float64 {
		return new(flowsim.Sim).Trial(context.Background(), routing.NewCompiled(top.Graph), top.ServerSwitches(), scheme, flowsim.MPTCP8, s, w).FlowRate
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
			percentile(ftRates, pct), percentile(jfRates, pct))
	}
	t.AddRow("jain", flowsim.JainFairness(ftRates), flowsim.JainFairness(jfRates))
	t.Notes = append(t.Notes, "paper: Jain's index 0.991 (fat-tree) vs 0.988 (jellyfish) — both ≈99% fair")
	return t
}

// summary holds the average / minimum / maximum of a sample, the shape
// reported by the paper's stability plot (Fig. 12).
type summary struct{ Mean, Min, Max float64 }

// summarize computes a summary. Empty input yields the zero summary.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := summary{Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	return s
}

// percentile returns the p-th percentile (0..100) of the sample by nearest
// rank over an ascending copy, the x-axis order of Fig. 13's rank plot.
// Empty input returns 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
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
