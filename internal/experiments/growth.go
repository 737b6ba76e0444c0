package experiments

import (
	"fmt"

	"jellyfish/internal/flowsim"
	"jellyfish/internal/graph"
	"jellyfish/internal/parallel"
	"jellyfish/internal/rng"
	"jellyfish/internal/topology"
)

// Fig5PathLength reproduces Fig. 5: mean inter-switch path length and
// diameter vs network size for RRG(N, 48, 36), comparing from-scratch
// construction against a network grown incrementally from the smallest
// size.
func Fig5PathLength(opt Options) *Table {
	k, r := 48, 36
	sizes := []int{100, 200, 400, 800, 1600, 3200}
	if opt.Quick {
		k, r = 24, 18
		sizes = []int{50, 100, 200}
	}
	src := rng.New(opt.Seed).Split("fig5")
	t := &Table{
		ID:      "fig5",
		Title:   fmt.Sprintf("path length vs size, RRG(N,%d,%d): from scratch vs incremental", k, r),
		Columns: []string{"switches", "servers", "scratch_mean", "scratch_diam", "incr_mean", "incr_diam"},
	}
	// From-scratch builds are independent per size and run concurrently;
	// the incremental network grows once through the same checkpoints,
	// which is inherently sequential.
	scratchStats := parallel.Map(opt.workers(), len(sizes), func(i int) graph.PathStats {
		n := sizes[i]
		return topology.Jellyfish(n, k, r, src.SplitN("scratch", n)).Graph.AllPairsStats()
	})
	incr := topology.Jellyfish(sizes[0], k, r, src.Split("incr-base"))
	prev := sizes[0]
	for i, n := range sizes {
		ss := scratchStats[i]
		if n > prev {
			topology.ExpandJellyfish(incr, n-prev, k, r, src.SplitN("grow", n))
			prev = n
		}
		is := incr.Graph.AllPairsStats()
		t.AddRow(n, n*(k-r), ss.Mean, ss.Diameter, is.Mean, is.Diameter)
	}
	t.Notes = append(t.Notes,
		"paper: mean path <2.7 at 38,400 servers (N=3200); diameter ≤4 at all tested scales; incremental ≈ scratch")
	return t
}

// Fig6IncrementalVsScratch reproduces Fig. 6: normalized throughput per
// server of incrementally grown Jellyfish vs from-scratch construction,
// growing from 20 to 160 switches in increments of 20 (12-port switches,
// 4 servers each).
func Fig6IncrementalVsScratch(opt Options) *Table {
	k, srv := 12, 4
	r := k - srv
	sizes := []int{20, 40, 60, 80, 100, 120, 140, 160}
	if opt.Quick {
		sizes = []int{20, 40, 60}
	}
	trials := opt.trials(5)
	src := rng.New(opt.Seed).Split("fig6")
	t := &Table{
		ID:      "fig6",
		Title:   "throughput per server: incremental growth vs from-scratch (k=12, 4 servers/switch)",
		Columns: []string{"switches", "servers", "incremental", "scratch"},
	}
	w := opt.workers()
	sums := parallel.Map(w, len(sizes), func(si int) [2]float64 {
		n := sizes[si]
		perTrial := parallel.Map(w, trials, func(trial int) [2]float64 {
			tsrc := src.SplitN(fmt.Sprintf("n%d", n), trial)
			incr := topology.Jellyfish(sizes[0], k, r, tsrc.Split("base"))
			for grown := sizes[0]; grown < n; grown += 20 {
				topology.ExpandJellyfish(incr, 20, k, r, tsrc.SplitN("grow", grown))
			}
			scratch := topology.Jellyfish(n, k, r, tsrc.Split("scratch"))
			return [2]float64{
				mcfThroughput(incr, tsrc.Split("incr-traffic"), 1),
				mcfThroughput(scratch, tsrc.Split("scratch-traffic"), 1),
			}
		})
		var incrSum, scratchSum float64
		for _, v := range perTrial {
			incrSum += v[0]
			scratchSum += v[1]
		}
		return [2]float64{incrSum, scratchSum}
	})
	for si, n := range sizes {
		t.AddRow(n, n*srv, sums[si][0]/float64(trials), sums[si][1]/float64(trials))
	}
	t.Notes = append(t.Notes, "paper: the two curves are close to identical at every size")
	return t
}

// Fig7LEGUP reproduces Fig. 7: normalized bisection bandwidth per budget
// stage for Jellyfish expansion vs a LEGUP-like Clos upgrader
// (substitution per DESIGN.md §8).
func Fig7LEGUP(opt Options) *Table {
	cfg := arcConfig{Seed: opt.Seed}
	if opt.Quick {
		cfg = arcConfig{
			SwitchPorts:     24,
			InitialServers:  120,
			InitialSwitches: 12,
			StageBudgets:    []float64{20000, 20000, 20000},
			ServersAdded:    60,
			Seed:            opt.Seed,
		}
	}
	jf := jellyfishArc(cfg)
	cl := closArc(cfg)
	t := &Table{
		ID:      "fig7",
		Title:   "incremental expansion: normalized bisection per budget stage, Jellyfish vs LEGUP-like Clos",
		Columns: []string{"stage", "cum_cost_$", "jf_servers", "jf_bisection", "clos_servers", "clos_bisection"},
	}
	for i := range jf {
		t.AddRow(jf[i].Index, fmt.Sprintf("%.0f", jf[i].CumulativeCost),
			jf[i].Servers, jf[i].NormalizedBisection,
			cl[i].Servers, cl[i].NormalizedBisection)
	}
	t.Notes = append(t.Notes,
		"paper: jellyfish reaches LEGUP's final bisection by stage 2 (≈60% cost saving); the drop at the server-adding stage is expected")
	return t
}

// Fig8Failures reproduces Fig. 8: normalized throughput under random link
// failures, Jellyfish (544 servers) vs same-equipment fat-tree
// (432 servers, k=12).
func Fig8Failures(opt Options) *Table {
	k := 12
	jfServers := 544
	if opt.Quick {
		k = 8
		jfServers = 160
	}
	fracs := []float64{0, 0.05, 0.10, 0.15, 0.20, 0.25}
	trials := opt.trials(3)
	src := rng.New(opt.Seed).Split("fig8")
	ft := topology.FatTree(k)
	switches := ft.NumSwitches()

	t := &Table{
		ID:      "fig8",
		Title:   fmt.Sprintf("throughput under random link failures: jellyfish (%d srv) vs fat-tree (%d srv)", jfServers, ft.NumServers()),
		Columns: []string{"fail_frac", "jellyfish", "jf_rel", "fattree", "ft_rel"},
	}
	// Per-server AVERAGE throughput (the paper's y-axis) via the flow
	// simulator with MPTCP: kSP-8 routes for jellyfish, ECMP-8 for the
	// fat-tree (the paper's own pairing — ECMP is strictly better there).
	// Max-concurrent flow would instead report the single worst server,
	// which after failures is dictated by whichever edge switch lost the
	// most uplinks. Relative columns normalize to the healthy network.
	w := opt.workers()
	sums := parallel.Map(w, len(fracs), func(fi int) [2]float64 {
		f := fracs[fi]
		perTrial := parallel.Map(w, trials, func(trial int) [2]float64 {
			tsrc := src.SplitN(fmt.Sprintf("f%.2f", f), trial)
			jf := topology.JellyfishSpread(switches, k, jfServers, tsrc.Split("jf"))
			topology.RemoveRandomLinks(jf, f, tsrc.Split("jf-fail"))
			jfTrial := simMean(jf, "ksp8", flowsim.MPTCP8, tsrc.Split("jf-traffic"), 1) / float64(trials)

			ftc := ft.Clone()
			topology.RemoveRandomLinks(ftc, f, tsrc.Split("ft-fail"))
			return [2]float64{jfTrial, simMean(ftc, "ecmp8", flowsim.MPTCP8, tsrc.Split("ft-traffic"), 1) / float64(trials)}
		})
		var jfSum, ftSum float64
		for _, v := range perTrial {
			jfSum += v[0]
			ftSum += v[1]
		}
		return [2]float64{jfSum, ftSum}
	})
	var jfTp, ftTp []float64
	for fi := range fracs {
		jfTp = append(jfTp, sums[fi][0])
		ftTp = append(ftTp, sums[fi][1])
	}
	for i, f := range fracs {
		t.AddRow(fmt.Sprintf("%.2f", f), jfTp[i], jfTp[i]/jfTp[0], ftTp[i], ftTp[i]/ftTp[0])
	}
	t.Notes = append(t.Notes,
		"paper: failing 15% of links costs jellyfish <16% capacity; jellyfish degrades more gracefully than the fat-tree while carrying more servers")
	return t
}
