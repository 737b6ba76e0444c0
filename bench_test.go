package jellyfish

// One benchmark per paper table/figure. Each bench runs the corresponding
// experiment from internal/experiments at reduced (Quick) scale so the full
// suite completes in minutes; the paper-scale sweeps are produced by
// `go run ./cmd/experiments <id>`. Custom metrics expose each experiment's
// headline number so regressions in the reproduced result (not just its
// runtime) are visible.

import (
	"strconv"
	"strings"
	"testing"

	"jellyfish/internal/capsearch"
	"jellyfish/internal/experiments"
	"jellyfish/internal/flowsim"
	"jellyfish/internal/mcf"
	"jellyfish/internal/packetsim"
	"jellyfish/internal/rng"
	"jellyfish/internal/routing"
	"jellyfish/internal/topology"
	"jellyfish/internal/traffic"
)

var benchOpt = experiments.Options{Seed: 1, Quick: true}

// lastFloat extracts the last parseable float in a table column, used to
// surface headline metrics.
func lastFloat(t *experiments.Table, col int) float64 {
	for i := len(t.Rows) - 1; i >= 0; i-- {
		s := strings.TrimSuffix(t.Rows[i][col], "%")
		if v, err := strconv.ParseFloat(s, 64); err == nil {
			return v
		}
	}
	return 0
}

func benchExperiment(b *testing.B, id string, metric string, col int) {
	run := experiments.Lookup(id)
	if run == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = run(benchOpt)
	}
	if metric != "" && tab != nil {
		b.ReportMetric(lastFloat(tab, col), metric)
	}
}

func BenchmarkFig1cPathLengthCDF(b *testing.B) {
	benchExperiment(b, "fig1c", "jf_cdf_final", 1)
}

func BenchmarkFig2aBisection(b *testing.B) {
	benchExperiment(b, "fig2a", "norm_bisection", 4)
}

func BenchmarkFig2bCost(b *testing.B) {
	benchExperiment(b, "fig2b", "jf_ports", 2)
}

func BenchmarkFig2cServersAtFullThroughput(b *testing.B) {
	benchExperiment(b, "fig2c", "jf_servers", 3)
}

func BenchmarkFig3DegreeDiameter(b *testing.B) {
	benchExperiment(b, "fig3", "jf_over_dd", 3)
}

func BenchmarkFig4SWDC(b *testing.B) {
	benchExperiment(b, "fig4", "throughput", 2)
}

func BenchmarkFig5PathLength(b *testing.B) {
	benchExperiment(b, "fig5", "incr_mean_path", 4)
}

func BenchmarkFig6Incremental(b *testing.B) {
	benchExperiment(b, "fig6", "incr_throughput", 2)
}

func BenchmarkFig7LEGUP(b *testing.B) {
	benchExperiment(b, "fig7", "jf_bisection", 3)
}

func BenchmarkFig8Failures(b *testing.B) {
	benchExperiment(b, "fig8", "jf_tp_at_25pct", 1)
}

func BenchmarkFig9ECMPPathCounts(b *testing.B) {
	benchExperiment(b, "fig9", "ksp8_p100", 3)
}

func BenchmarkTable1RoutingCongestion(b *testing.B) {
	benchExperiment(b, "table1", "jf_8sp_mptcp_pct", 3)
}

func BenchmarkFig10SimVsOptimal(b *testing.B) {
	benchExperiment(b, "fig10", "pkt_over_opt", 3)
}

func BenchmarkFig11PacketLevelServers(b *testing.B) {
	benchExperiment(b, "fig11", "jf_servers", 4)
}

func BenchmarkFig12Stability(b *testing.B) {
	benchExperiment(b, "fig12", "avg_throughput", 3)
}

func BenchmarkFig13Fairness(b *testing.B) {
	benchExperiment(b, "fig13", "jain_jellyfish", 2)
}

func BenchmarkFig14Locality(b *testing.B) {
	benchExperiment(b, "fig14", "norm_throughput", 3)
}

// ---- parallel-evaluation benchmarks ----
//
// The same experiment bundle at Workers=1 (serial) and Workers=0 (all
// cores) measures the speedup of the internal/parallel fan-out; on a
// 4+-core machine the parallel variant should be ≥3× faster. Compare with:
//
//	go test -bench 'BenchmarkExperimentSuite' -benchtime 1x
//
// Outputs are bit-identical across worker counts (see
// internal/experiments/determinism_test.go), so this is purely wall-clock.

// suiteIDs spans all three concurrent layers: MCF trials (fig6), the
// sim+routing stack (fig10, table1), and route-table fan-out (fig9).
var suiteIDs = []string{"fig6", "fig9", "fig10", "table1", "ablation-hotspot"}

func benchExperimentSuite(b *testing.B, workers int) {
	opt := experiments.Options{Seed: 1, Quick: true, Workers: workers}
	for i := 0; i < b.N; i++ {
		for _, id := range suiteIDs {
			experiments.Lookup(id)(opt)
		}
	}
}

func BenchmarkExperimentSuiteSerial(b *testing.B)   { benchExperimentSuite(b, 1) }
func BenchmarkExperimentSuiteParallel(b *testing.B) { benchExperimentSuite(b, 0) }

func BenchmarkOptimalThroughputSerial(b *testing.B) {
	net := New(Config{Switches: 60, Ports: 12, NetworkDegree: 9, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OptimalThroughput(net, uint64(i), 1)
	}
}

func BenchmarkOptimalThroughputParallel(b *testing.B) {
	net := New(Config{Switches: 60, Ports: 12, NetworkDegree: 9, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OptimalThroughput(net, uint64(i), 0)
	}
}

// ---- micro-benchmarks on the core primitives ----

// BenchmarkMaxConcurrentFlow times one GK solve on a paper-scale-ish
// instance (permutation traffic on a random regular graph), the kernel
// every capacity curve funnels through. allocs/op covers the whole solve
// including one-time solver setup; the steady-state phase loop itself is
// pinned at zero allocations by TestPhaseLoopZeroAllocs in internal/mcf.
// The Workers=1 / Workers=0 pair measures intra-solver parallelism; the
// trajectory is recorded in BENCH_mcf.json.
func benchMaxConcurrentFlow(b *testing.B, workers int) {
	net := New(Config{Switches: 80, Ports: 16, NetworkDegree: 12, Seed: 1})
	pat := trafficPermutation(net, 7)
	b.ReportAllocs()
	b.ResetTimer()
	var res mcf.Result
	for i := 0; i < b.N; i++ {
		res = mcf.MaxConcurrentFlow(net.Graph, pat, mcf.Options{Workers: workers})
	}
	b.ReportMetric(res.Lambda, "lambda")
	b.ReportMetric(float64(res.Phases), "phases")
}

func trafficPermutation(net *Topology, seed uint64) []mcf.Commodity {
	return traffic.RandomPermutation(net.ServerSwitches(), rng.New(seed)).Commodities()
}

func BenchmarkMaxConcurrentFlow(b *testing.B)         { benchMaxConcurrentFlow(b, 1) }
func BenchmarkMaxConcurrentFlowParallel(b *testing.B) { benchMaxConcurrentFlow(b, 0) }

// ---- capacity-search benchmarks (warm-started incremental pipeline) ----
//
// The Fig. 2(c)-style binary search at k=8 scale (125 switches), the
// workload the incremental solving layer (DESIGN.md §9) was built for.
// Three rungs: the PR 2 cold-start baseline (from-scratch topology per
// probe, uniform permutations, package-level solver), the incremental
// pipeline with warm-start threading disabled (same instances, cold
// seeding), and the full warm-started search. The measured trajectory is
// recorded in BENCH_mcf.json; the acceptance bar is ≥2× PR2 → Warm.

const benchSearchK = 8

func benchMaxServersSearch(b *testing.B, cold bool) {
	k := benchSearchK
	switches := 5 * k * k / 4
	var res int
	for i := 0; i < b.N; i++ {
		res, _ = CapacitySearch{Switches: switches, Ports: k, Trials: 3, Seed: 13, ColdStart: cold}.Run()
	}
	b.ReportMetric(float64(res), "servers")
}

func BenchmarkMaxServersSearchWarm(b *testing.B) { benchMaxServersSearch(b, false) }
func BenchmarkMaxServersSearchCold(b *testing.B) { benchMaxServersSearch(b, true) }

// BenchmarkMaxServersSearchPR2 replicates the pre-warm-start
// MaxServersAtFullThroughput code path: a fresh SpreadServers build and
// uniform-permutation SupportsFullThroughput check per probe, with the
// doubling upper-bound scan. This is the baseline the ≥2× claim is
// measured against.
func BenchmarkMaxServersSearchPR2(b *testing.B) {
	k := benchSearchK
	switches := 5 * k * k / 4
	seed := uint64(13)
	check := func(servers int) bool {
		if servers > switches*(k-1) {
			return false
		}
		t := SpreadServers(switches, k, servers, seed)
		return SupportsFullThroughput(t, 3, 0.03, seed+capsearch.TrafficSeedOffset)
	}
	var res int
	for i := 0; i < b.N; i++ {
		lo, hi := switches, switches*(k-1)
		if !check(lo) {
			res = 0
			continue
		}
		for hi > lo {
			if !check(hi) {
				break
			}
			lo = hi
			hi *= 2
		}
		for lo < hi-1 {
			mid := (lo + hi) / 2
			if check(mid) {
				lo = mid
			} else {
				hi = mid
			}
		}
		res = lo
	}
	b.ReportMetric(float64(res), "servers")
}

// ---- transport-kernel benchmarks (compiled flowsim instance) ----
//
// Steady-state flowsim Simulate calls on one compiled Sim at the MCF
// benchmark's scale (RRG(80,16,12), 320 servers, kSP-8 routes): the
// zero-allocation transport kernel gate, the flow-level analogue of
// BenchmarkMaxConcurrentFlow. Routing is prebuilt — the kernel alone is
// measured — and the instance is warmed before timing, so allocs/op is
// budgeted at exactly 0 in BENCH_mcf.json's ci_budget (the pin
// TestTransportZeroAllocs enforces per-protocol). The PR 4 one-shot
// baseline on this instance is recorded in BENCH_mcf.json
// transport_kernel.
func benchTransportKernel(b *testing.B, proto flowsim.Protocol) {
	net := New(Config{Switches: 80, Ports: 16, NetworkDegree: 12, Seed: 1})
	pat := traffic.RandomPermutation(net.ServerSwitches(), rng.New(7))
	var sd [][2]int
	for _, f := range pat.Flows {
		sd = append(sd, [2]int{f.SrcSwitch, f.DstSwitch})
	}
	table := routing.KShortest(net.Graph, routing.PairsForCommodities(sd), 8, 0)
	sim := flowsim.NewSim(net.Graph.N(), net.NumServers())
	src := rng.New(3)
	var res flowsim.Result
	res = sim.Simulate(pat.Flows, table, proto, src) // warm the instance
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = sim.Simulate(pat.Flows, table, proto, src)
	}
	b.ReportMetric(res.Mean(), "mean_rate")
}

func BenchmarkTransportKernelTCP8(b *testing.B)   { benchTransportKernel(b, flowsim.TCP8) }
func BenchmarkTransportKernelMPTCP8(b *testing.B) { benchTransportKernel(b, flowsim.MPTCP8) }

// ---- packet-kernel benchmark (compiled packetsim instance) ----
//
// Steady-state packetsim Simulate calls on one warmed Sim over the
// ablation-packet-vs-fluid 120-server row at seed 1 (40 12-port switches
// holding 3 servers each, permutation traffic, kSP-8 routes, coupled
// MPTCP-8, horizon 6000): the event loop alone, with routing prebuilt.
// allocs/op is budgeted at exactly 0 in BENCH_mcf.json's ci_budget (the
// pin TestPacketZeroAllocs enforces). Coupled subflows draw nothing from
// the stream, so every iteration repeats the ablation row exactly.
func BenchmarkPacketKernelMPTCP8(b *testing.B) {
	tsrc := rng.New(1).Split("ablation-pkt").Split("s120")
	ports, servers := make([]int, 40), make([]int, 40)
	for i := range ports {
		ports[i], servers[i] = 12, 3
	}
	top := topology.JellyfishHeterogeneous(ports, servers, tsrc.Split("topo"))
	pat := traffic.RandomPermutation(top.ServerSwitches(), tsrc.Split("traffic"))
	table := routing.NewCompiled(top.Graph).KShortest(routing.PairsForPattern(pat), 8, 0)
	sim := packetsim.NewSim(top.Graph.N(), top.NumServers())
	cfg := packetsim.Config{Subflows: 8, Coupled: true, Horizon: 6000}
	src := tsrc.Split("des")
	res := sim.Simulate(pat.Flows, table, cfg, src) // warm the instance
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = sim.Simulate(pat.Flows, table, cfg, src)
	}
	b.ReportMetric(res.Mean(), "mean_rate")
}

// ---- routing-kernel benchmark (k-shortest paths) ----
//
// One fresh routing.Compiled per op computing 8-shortest paths for every
// pair of a random permutation on Table 1's jellyfish at seed 1 (245
// 14-port switches, 780 servers spread as Table 1 spreads them), on one
// worker: Yen's spur searches alone, with no memo carried between ops.
// allocs/op is budgeted in BENCH_mcf.json's ci_budget; the allocations
// are the candidate paths Yen builds and the table around them, so the
// count is a property of the instance, not the machine.
func BenchmarkRoutingKernelKSP8(b *testing.B) {
	tsrc := rng.New(1).Split("table1")
	ports, servers := make([]int, 245), make([]int, 245)
	for i := range ports {
		ports[i], servers[i] = 14, 780/245
		if i < 780%245 {
			servers[i]++
		}
	}
	top := topology.JellyfishHeterogeneous(ports, servers, tsrc.Split("jf"))
	pairs := routing.PairsForPattern(traffic.RandomPermutation(top.ServerSwitches(), tsrc.Split("traffic")))
	var table *routing.Table
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table = routing.NewCompiled(top.Graph).KShortest(pairs, 8, 1)
	}
	b.ReportMetric(float64(len(table.Paths)), "pairs")
}

func BenchmarkConstructJellyfish(b *testing.B) {
	for i := 0; i < b.N; i++ {
		New(Config{Switches: 245, Ports: 14, NetworkDegree: 11, Seed: uint64(i)})
	}
}

func BenchmarkExpandOneSwitch(b *testing.B) {
	net := New(Config{Switches: 200, Ports: 24, NetworkDegree: 12, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Expand(net, 1, 24, 12, uint64(i))
	}
}

func BenchmarkOptimalThroughput(b *testing.B) {
	net := New(Config{Switches: 60, Ports: 12, NetworkDegree: 9, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OptimalThroughput(net, uint64(i))
	}
}

func BenchmarkPacketLevelThroughput(b *testing.B) {
	net := New(Config{Switches: 60, Ports: 12, NetworkDegree: 9, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PacketLevelThroughput(net, KSP8, MPTCP8Subflows, uint64(i))
	}
}

func BenchmarkMeanPathLength(b *testing.B) {
	net := New(Config{Switches: 400, Ports: 48, NetworkDegree: 36, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MeanPathLength(net)
	}
}

// ---- ablation benches (design-choice probes beyond the paper's figures) ----

func BenchmarkAblationRoutingK(b *testing.B) {
	benchExperiment(b, "ablation-routing-k", "tp_at_k16", 1)
}

func BenchmarkAblationOversubscription(b *testing.B) {
	benchExperiment(b, "ablation-oversubscription", "tp_most_oversub", 3)
}

func BenchmarkAblationHeterogeneous(b *testing.B) {
	benchExperiment(b, "ablation-heterogeneous", "tp_upgraded", 4)
}

func BenchmarkAblationFailuresRouting(b *testing.B) {
	benchExperiment(b, "ablation-failures-routing", "tp_vs_healthy", 2)
}

func BenchmarkAblationSwitchFailures(b *testing.B) {
	benchExperiment(b, "ablation-switch-failures", "tp_at_20pct", 2)
}

func BenchmarkAblationAllToAll(b *testing.B) {
	benchExperiment(b, "ablation-alltoall", "jf_throughput", 2)
}

func BenchmarkAblationPacketVsFluid(b *testing.B) {
	benchExperiment(b, "ablation-packet-vs-fluid", "des_over_fluid", 4)
}

func BenchmarkAblationHotspot(b *testing.B) {
	benchExperiment(b, "ablation-hotspot", "tp_hot40", 1)
}

// ---- warm-vs-cold sweep benchmarks ----
//
// The mcf-driven sweeps thread warm solver state between adjacent points
// (same instances either way; Options.ColdStart flips seeding only).
// These pairs keep the sweep-side warm-start win measurable in CI.

func benchExperimentCold(b *testing.B, id string) {
	opt := benchOpt
	opt.ColdStart = true
	run := experiments.Lookup(id)
	for i := 0; i < b.N; i++ {
		run(opt)
	}
}

func BenchmarkAblationHotspotCold(b *testing.B) { benchExperimentCold(b, "ablation-hotspot") }
func BenchmarkAblationSwitchFailuresCold(b *testing.B) {
	benchExperimentCold(b, "ablation-switch-failures")
}
func BenchmarkAblationOversubscriptionCold(b *testing.B) {
	benchExperimentCold(b, "ablation-oversubscription")
}
