package experiments

import (
	"context"
	"fmt"

	"jellyfish/internal/capsearch"
	"jellyfish/internal/estimate"
	"jellyfish/internal/mcf"
	"jellyfish/internal/parallel"
	"jellyfish/internal/rng"
	"jellyfish/internal/topology"
	"jellyfish/internal/traffic"
)

// mcfThroughput evaluates normalized optimal-routing throughput of a
// topology under one random permutation.
func mcfThroughput(t *topology.Topology, src *rng.Source, workers int) float64 {
	pat := traffic.RandomPermutation(t.ServerSwitches(), src)
	res := mcf.MaxConcurrentFlow(context.Background(), t.Graph, pat.Commodities(), mcf.Options{Workers: workers})
	return res.Throughput()
}

// meanMCFThroughput averages mcfThroughput over trials, fanning the
// independent trials out over workers goroutines. Each trial draws from
// its own index-derived stream and results are summed in trial order, so
// the mean is bit-identical for every worker count.
func meanMCFThroughput(t *topology.Topology, src *rng.Source, trials, workers int) float64 {
	return parallel.SumFloat64(workers, trials, func(i int) float64 {
		return mcfThroughput(t, src.SplitN("trial", i), 1)
	}) / float64(trials)
}

// fullThroughputSlack absorbs the flow solver's approximation tolerance
// in every "supports full rate" test (λ ≥ 1−slack accepts).
const fullThroughputSlack = 0.03

// maxServersFullCapacity binary-searches the Fig. 2(c)/Fig. 11 quantity
// with the given feasibility check.
func maxServersFullCapacity(lo, hi int, feasible func(servers int) bool) int {
	if !feasible(lo) {
		return 0
	}
	for lo < hi-1 {
		mid := (lo + hi) / 2
		if feasible(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Fig1cPathLengthCDF reproduces Fig. 1(c): the server-pair path length
// distribution of a 686-server Jellyfish vs the same-equipment fat-tree.
// Path lengths are between ToR switches (server hops add 2).
func Fig1cPathLengthCDF(opt Options) *Table {
	k := 14
	if opt.Quick {
		k = 8
	}
	src := rng.New(opt.Seed).Split("fig1c")
	ft := topology.FatTree(k)
	servers := ft.NumServers()
	switches := ft.NumSwitches()
	trials := opt.trials(10)

	// Jellyfish from identical equipment carrying the same server count.
	// Trials are independent builds; merge in trial order afterwards.
	type trialStats struct {
		cdf  []float64
		diam int
	}
	perTrial := parallel.MapSeeded(opt.workers(), src, "jf", trials, func(i int, tsrc *rng.Source) trialStats {
		jf := topology.JellyfishSpread(switches, k, servers, tsrc)
		stats := jf.SwitchPathStats()
		return trialStats{cdf: stats.CDF(), diam: stats.Diameter}
	})
	jfCDF := make([]float64, 0)
	var jfDiam int
	for _, ts := range perTrial {
		for d := range ts.cdf {
			for d >= len(jfCDF) {
				jfCDF = append(jfCDF, 0)
			}
			jfCDF[d] += ts.cdf[d] / float64(trials)
		}
		if ts.diam > jfDiam {
			jfDiam = ts.diam
		}
	}
	ftStats := ft.SwitchPathStats()
	ftCDF := ftStats.CDF()

	t := &Table{
		ID:      "fig1c",
		Title:   fmt.Sprintf("path length CDF, %d-server Jellyfish vs fat-tree(k=%d), switch hops", servers, k),
		Columns: []string{"hops", "jellyfish_cdf", "fattree_cdf"},
	}
	maxD := len(jfCDF)
	if len(ftCDF) > maxD {
		maxD = len(ftCDF)
	}
	at := func(cdf []float64, d int) float64 {
		if d < len(cdf) {
			return cdf[d]
		}
		return 1
	}
	for d := 1; d < maxD; d++ {
		t.AddRow(d, at(jfCDF, d), at(ftCDF, d))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("server-to-server hops = switch hops + 2; jellyfish diameter %d, fat-tree %d", jfDiam, ftStats.Diameter),
		"paper: >99.5% of jellyfish server pairs within 5 server-hops (3 switch hops); fat-tree 7.5%")
	return t
}

// Fig2aBisectionVsServers reproduces Fig. 2(a): theoretical normalized
// bisection bandwidth vs supported servers at equal cost, for
// (N=720,k=24), (N=1280,k=32), (N=2880,k=48).
func Fig2aBisectionVsServers(opt Options) *Table {
	configs := []struct{ n, k int }{{720, 24}, {1280, 32}, {2880, 48}}
	if opt.Quick {
		configs = configs[:1]
	}
	t := &Table{
		ID:      "fig2a",
		Title:   "normalized bisection bandwidth vs servers (Bollobás bound), equal-cost curves",
		Columns: []string{"N", "k", "r", "servers", "jf_norm_bisection", "ft_equiv_servers"},
	}
	for _, c := range configs {
		ftServers := 0
		// Fat-tree with the same port count: k³/4 servers.
		ftServers = c.k * c.k * c.k / 4
		for r := c.k - 2; r >= c.k/2; r -= 2 {
			servers := c.n * (c.k - r)
			t.AddRow(c.n, c.k, r, servers, estimate.RRGNormalizedBisection(c.n, c.k, r), ftServers)
		}
	}
	t.Notes = append(t.Notes, "paper: at the cost of a 16,000-server fat-tree (k=40), jellyfish supports >20,000 at full bisection")
	return t
}

// Fig2bEquipmentCost reproduces Fig. 2(b): total ports needed vs number of
// servers at full bisection bandwidth, per switch port-count.
func Fig2bEquipmentCost(opt Options) *Table {
	ports := []int{24, 32, 48, 64}
	serverCounts := []int{10000, 20000, 30000, 40000, 50000, 60000, 70000, 80000}
	if opt.Quick {
		ports = ports[:2]
		serverCounts = serverCounts[:3]
	}
	t := &Table{
		ID:      "fig2b",
		Title:   "equipment cost (total ports) vs servers at full bisection bandwidth",
		Columns: []string{"servers", "k", "jf_ports", "ft_ports", "jf_saving"},
	}
	for _, s := range serverCounts {
		for _, k := range ports {
			jfPorts, _, _ := estimate.MinPortsForServers(s, k)
			// Fat-tree: smallest k'≥k design covering s servers uses
			// 5k'²/4 switches; cost 5k'³/4 ports — but fat-trees exist only
			// at discrete sizes; charge the k³/4-server design scaled up.
			ftPorts := fatTreePortsFor(s, k)
			saving := "n/a"
			if jfPorts > 0 && ftPorts > 0 {
				saving = fmt.Sprintf("%.0f%%", 100*(1-float64(jfPorts)/float64(ftPorts)))
			}
			t.AddRow(s, k, jfPorts, ftPorts, saving)
		}
	}
	t.Notes = append(t.Notes, "fat-tree cost is the smallest full-bisection fat-tree of ≥ the given servers, using k-port switches (oversized when the discrete size jumps past the target)")
	return t
}

// fatTreePortsFor returns the port cost of the smallest 3-level fat-tree
// with at least s servers built from k-port switches (0 if impossible).
func fatTreePortsFor(s, k int) int {
	if k*k*k/4 < s {
		return 0
	}
	return 5 * k * k / 4 * k
}

// Fig2cServersAtFullThroughput reproduces Fig. 2(c): servers supported at
// full capacity under random-permutation traffic with optimal routing,
// Jellyfish vs fat-tree at identical equipment, for 6..14-port switches.
func Fig2cServersAtFullThroughput(opt Options) *Table {
	ks := []int{6, 8, 10, 12, 14}
	if opt.Quick {
		// The paper's sweep starts at 6-port switches: below that, random
		// graphs with network degree ≤3 cannot match a full-bisection
		// fat-tree.
		ks = []int{6}
	}
	src := rng.New(opt.Seed).Split("fig2c")
	trials := opt.trials(3)
	t := &Table{
		ID:      "fig2c",
		Title:   "servers at full capacity vs equipment cost (optimal routing, random permutation)",
		Columns: []string{"k", "total_ports", "ft_servers", "jf_servers", "improvement"},
	}
	// Each switch size runs its own binary search concurrently; the search
	// itself is sequential but every feasibility probe fans its trials
	// out. Probes draw from an incremental topology family and thread
	// warm solver state between adjacent points in probe order
	// (capsearch).
	type kRow struct {
		ports, ftServers, jfServers int
	}
	rows := parallel.Map(opt.workers(), len(ks), func(i int) kRow {
		k := ks[i]
		ft := topology.FatTree(k)
		switches := ft.NumSwitches()
		ftServers := ft.NumServers()
		ksrc := src.Split(fmt.Sprintf("k%d", k))
		// The context is never cancelled, so MaxServers cannot fail.
		jfServers, _ := capsearch.MaxServers(context.Background(), capsearch.Config{
			Lo:      ftServers,
			Hi:      switches * (k - 1),
			Family:  capsearch.NewFamily(topology.JellyfishSpread(switches, k, ftServers, ksrc.SplitN("topo", ftServers)), ksrc.Split("grow")),
			Traffic: ksrc.Split("traffic"),
			Trials:  trials,
			Slack:   fullThroughputSlack,
			// The switch sizes already fan out across cores (the
			// parallel.Map above); keep each probe's solver serial so the
			// goroutine count stays ~workers rather than workers².
			Workers: 1,
		})
		return kRow{ft.TotalPorts(), ftServers, jfServers}
	})
	for i, k := range ks {
		r := rows[i]
		t.AddRow(k, r.ports, r.ftServers,
			r.jfServers, fmt.Sprintf("%.1f%%", 100*(float64(r.jfServers)/float64(r.ftServers)-1)))
	}
	t.Notes = append(t.Notes, "paper: up to 27% more servers at the largest size evaluated (874 vs 686)")
	return t
}

// Fig3DegreeDiameter reproduces Fig. 3: Jellyfish throughput vs the
// best-known degree-diameter benchmark graphs at 9 (switches, ports,
// network-degree) configurations.
func Fig3DegreeDiameter(opt Options) *Table {
	configs := [][3]int{
		{132, 4, 3}, {72, 7, 5}, {98, 6, 4}, {50, 11, 7}, {111, 8, 6},
		{212, 7, 5}, {168, 10, 7}, {104, 16, 11}, {198, 24, 16},
	}
	if opt.Quick {
		configs = [][3]int{{50, 11, 7}, {72, 7, 5}}
	}
	src := rng.New(opt.Seed).Split("fig3")
	trials := opt.trials(5)
	t := &Table{
		ID:      "fig3",
		Title:   "throughput: best-known degree-diameter graphs vs Jellyfish (normalized)",
		Columns: []string{"(A,B,C)", "dd_throughput", "jf_throughput", "jf/dd"},
	}
	w := opt.workers()
	tps := parallel.Map(w, len(configs), func(ci int) [2]float64 {
		n, ports, deg := configs[ci][0], configs[ci][1], configs[ci][2]
		csrc := src.Split(fmt.Sprintf("%d-%d-%d", n, ports, deg))
		dd := topology.DegreeDiameterTopology(n, ports, deg, csrc.Split("dd"))
		ddTp := meanMCFThroughput(dd, csrc.Split("dd-traffic"), trials, w)
		jfTp := parallel.SumFloat64(w, trials, func(i int) float64 {
			jf := topology.Jellyfish(n, ports, deg, csrc.SplitN("jf", i))
			return mcfThroughput(jf, csrc.SplitN("jf-traffic", i), 1) / float64(trials)
		})
		return [2]float64{ddTp, jfTp}
	})
	for ci, c := range configs {
		ddTp, jfTp := tps[ci][0], tps[ci][1]
		ratio := 1.0
		if ddTp > 0 {
			ratio = jfTp / ddTp
		}
		t.AddRow(fmt.Sprintf("(%d,%d,%d)", c[0], c[1], c[2]), ddTp, jfTp, ratio)
	}
	t.Notes = append(t.Notes,
		"dd graphs: exact Moore constructions (Petersen, Hoffman–Singleton) where classical, simulated-annealing optimized regular graphs otherwise (DESIGN.md §8)",
		"paper: jellyfish ≥ ~91% of the benchmark in every configuration")
	return t
}

// Fig4SWDC reproduces Fig. 4: Jellyfish vs the three SWDC degree-6
// variants at equal equipment, 2 servers per switch (oversubscribed).
func Fig4SWDC(opt Options) *Table {
	n, hexN := 484, 450
	if opt.Quick {
		n, hexN = 100, 100
	}
	deg, servers := 6, 2
	src := rng.New(opt.Seed).Split("fig4")
	trials := opt.trials(5)
	t := &Table{
		ID:      "fig4",
		Title:   fmt.Sprintf("throughput vs SWDC variants (degree 6, %d switches, 2 servers/switch)", n),
		Columns: []string{"topology", "switches", "throughput"},
	}
	w := opt.workers()
	jfTp := parallel.SumFloat64(w, trials, func(i int) float64 {
		jf := topology.Jellyfish(n, deg+servers, deg, src.SplitN("jf", i))
		return mcfThroughput(jf, src.SplitN("jf-traffic", i), 1) / float64(trials)
	})
	t.AddRow("jellyfish", n, jfTp)

	ring := topology.SWDCRing(n, deg, servers, src.Split("ring"))
	t.AddRow("swdc-ring", n, meanMCFThroughput(ring, src.Split("ring-traffic"), trials, w))
	torus := topology.SWDC2DTorus(n, deg, servers, src.Split("torus"))
	t.AddRow("swdc-2dtorus", n, meanMCFThroughput(torus, src.Split("torus-traffic"), trials, w))
	hex := topology.SWDC3DHexTorus(hexN, deg, servers, src.Split("hex"))
	t.AddRow("swdc-3dhextorus", hexN, meanMCFThroughput(hex, src.Split("hex-traffic"), trials, w))
	t.Notes = append(t.Notes, "paper: jellyfish ≈ 119% of the best SWDC variant (the ring)")
	return t
}
