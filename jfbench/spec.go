package main

// The benchmark's fixed specification: latency limits behind slo_frac,
// the daemon's flags, what each workload loads and bypasses, and for
// every per-layer metric the end-to-end metric it is predicted to move.
// BENCHMARK.json at the repository root lists the same metric names;
// harness_test.go keeps the two in step.

// sloLimitMs is the latency limit of each op class. slo_frac is the
// share of attempted ops answered correctly within their class's limit;
// a failed op always misses.
var sloLimitMs = map[string]float64{
	"design":              50,
	"evaluate.optimal":    1500,
	"evaluate.transport":  250,
	"evaluate.estimator":  250,
	"whatif":              1500,
	"rewire-plan":         50,
	"capacity-search":     500,
	"job.capacity-search": 5000,
	"job.design":          100,
	"experiment":          60000,
}

// daemonFlags are jellyfishd's flags in every daemon workload, besides
// -addr and (for sweep and hot) -state-dir: defaults with two shard
// workers.
var daemonFlags = []string{"-workers", "2"}

// workloadSpec describes one workload: how load is offered, which layers
// it is built to load, and which it bypasses (where every per-layer
// prediction is "no change").
type workloadSpec struct {
	loop      string
	loads     string
	bypasses  string
	stateDir  bool
	setupReps int
	conns     int // generator connections and senders; 0 = no daemon
}

var workloadSpecs = map[string]workloadSpec{
	"interactive": {
		loop:      "open loop, seeded Poisson arrivals at a fixed rate over up to 8 connections",
		loads:     "service front, scheduler queue, all four cache tiers, topology build, mcf (evaluate, what-if), estimate, routing + flowsim (transport evaluates), capsearch (small searches)",
		bypasses:  "persist (memory-only daemon), packetsim, intra-solve parallelism",
		setupReps: 5,
		conns:     8,
	},
	"sweep": {
		loop:      "closed loop, 2 submitters following capacity-search jobs to their result",
		loads:     "capsearch, topology growth, mcf (Garg-Koenemann), job store + SSE, persist",
		bypasses:  "resp and family cache tiers (every inventory is new), estimate, routing, flowsim, packetsim",
		stateDir:  true,
		setupReps: 5,
		conns:     2,
	},
	"hot": {
		loop:      "closed loop, 2 connections back to back",
		loads:     "HTTP decode/validate/digest/encode, scheduler dispatch, resp tier, topology build + blueprint codec + path stats, bisection estimator, persist (journal, blobs, snapshots, boot replay)",
		bypasses:  "mcf (no solve in the measured phase), capsearch, routing, flowsim, packetsim",
		stateDir:  true,
		setupReps: 5,
		conns:     2,
	},
	"figures": {
		loop:      "batch: one cmd/experiments exec per experiment, -workers 2",
		loads:     "experiments, parallel (2 workers), mcf, routing, flowsim, packetsim",
		bypasses:  "service, persist, every daemon cache",
		setupReps: 21,
	},
}

// layerMetric is one per-layer metric with its source — M for a
// /metrics delta over the measured phase, T for spans the harness
// records around in-process calls, H for the harness itself — and the
// end-to-end metric it should move (→) and where it should stay flat (=).
type layerMetric struct {
	name, unit, source, moves string
}

var layerMetrics = []layerMetric{
	{"service.queue_wait_ms_mean", "ms", "M", "→ latency_tail_ms, slo_frac on interactive; = on figures"},
	{"service.queue_wait_ms_p99", "ms", "M", "→ latency_tail_ms, slo_frac on interactive; = on figures"},
	{"service.exec_ms_mean.design", "ms", "M", "→ latency_p50_ms on interactive, ops_per_s on hot"},
	{"service.exec_ms_mean.evaluate", "ms", "M", "→ latency_p50_ms on interactive"},
	{"service.exec_ms_mean.whatif", "ms", "M", "→ latency_p50_ms on interactive"},
	{"service.exec_ms_mean.capacity-search", "ms", "M", "→ ops_per_s on sweep"},
	{"service.exec_ms_mean.rewire-plan", "ms", "M", "→ latency_p50_ms on interactive, ops_per_s on hot"},
	{"service.front_us_mean", "us", "T", "→ ops_per_s, cpu_ms_per_op on hot; = on sweep"},
	{"service.hit_ratio.resp", "ratio", "M", "→ latency_p50_ms, cpu_ms_per_op on interactive; ≈0 and = on sweep"},
	{"service.hit_ratio.family", "ratio", "M", "→ latency_p50_ms on interactive; ≈0 and = on sweep"},
	{"service.hit_ratio.chain", "ratio", "M", "→ latency_p50_ms on interactive (what-if)"},
	{"service.hit_ratio.sim", "ratio", "M", "→ latency_p50_ms on interactive (transport)"},
	{"service.deduped", "count", "M", "→ fail_frac on interactive and hot"},
	{"service.sync_rejected", "count", "M", "→ fail_frac on interactive and hot"},
	{"service.latency_mean_ms", "ms", "H", "untraced mean op latency of the traced run's measured phase"},
	{"service.attributed_ms", "ms", "M+T", "queue + front + exec per op along the blocking path"},
	{"service.unattributed_ms", "ms", "M+T", "latency_mean_ms minus attributed_ms (HTTP client, sockets, generator)"},
	{"persist.appends", "count", "M", "→ latency_tail_ms on hot; = on interactive (memory-only)"},
	{"persist.append_us_mean", "us", "M", "→ latency_tail_ms on hot; = on interactive"},
	{"persist.snapshots", "count", "M", "→ latency_tail_ms on hot; = on interactive"},
	{"persist.snapshot_ms_mean", "ms", "M", "→ latency_tail_ms on hot; = on interactive"},
	{"persist.replay_ms", "ms", "M", "→ setup_s on hot"},
	{"persist.blob_put_us_mean", "us", "T", "→ ops_per_s on hot"},
	{"topology.build_ms_mean", "ms", "T", "→ latency_p50_ms on interactive"},
	{"topology.scenario_ms_mean", "ms", "T", "→ latency_p50_ms on interactive (what-if)"},
	{"topology.blueprint_decode_us_per_kb", "us/KB", "T", "→ ops_per_s on hot; = on sweep"},
	{"topology.blueprint_encode_us_per_kb", "us/KB", "T", "→ ops_per_s on hot; = on sweep"},
	{"graph.pathstats_ms_mean", "ms", "T", "→ ops_per_s on hot"},
	{"mcf.solves", "count", "M", "count (the daemon counts solves inside capacity searches only); ≈0 on hot"},
	{"mcf.phases", "count", "M", "count"},
	{"mcf.batches", "count", "M", "count"},
	{"mcf.dual_refreshes", "count", "M", "count"},
	{"mcf.phases_per_solve", "ratio", "M", "→ ops_per_s on sweep (warm starts across probes)"},
	{"mcf.solve_ms_mean", "ms", "M", "→ ops_per_s on sweep, capacity-search latency on interactive; = on hot"},
	{"mcf.phase_us_mean", "us", "M", "→ ops_per_s on sweep, capacity-search latency on interactive; = on hot"},
	{"capsearch.probes", "count", "M", "→ ops_per_s, latency_p50_ms on sweep"},
	{"capsearch.trials", "count", "M", "→ ops_per_s, latency_p50_ms on sweep"},
	{"capsearch.probes_per_search", "ratio", "M", "→ ops_per_s, latency_p50_ms on sweep"},
	{"capsearch.probe_ms_mean", "ms", "M", "→ ops_per_s, latency_p50_ms on sweep"},
	{"capsearch.family_build_ms_mean", "ms", "T", "→ ops_per_s, latency_p50_ms on sweep"},
	{"estimate.ms_mean.bisection", "ms", "T", "→ latency_tail_ms on interactive, ops_per_s on hot"},
	{"estimate.ms_mean.spectral", "ms", "T", "→ latency_tail_ms on interactive"},
	{"estimate.ms_mean.sampled-mcf", "ms", "T", "→ latency_tail_ms on interactive"},
	{"routing.compile_ms_mean", "ms", "T", "→ interactive latency on sim-tier misses, ops_per_s on figures"},
	{"flowsim.simulate_ms_mean", "ms", "T", "→ interactive transport latency, ops_per_s on figures; = on sweep"},
	{"packetsim.simulate_ms_mean", "ms", "T", "→ ops_per_s on figures; = on every daemon workload"},
	{"parallel.efficiency", "ratio", "T", "→ ops_per_s on figures; = on daemon workloads"},
	{"experiments.wall_s.table1", "s", "H", "→ ops_per_s on figures"},
	{"experiments.wall_s.fig11", "s", "H", "→ ops_per_s on figures"},
	{"experiments.wall_s.ablation-packet-vs-fluid", "s", "H", "→ ops_per_s on figures"},
	{"gen.late_ms_p99", "ms", "H", "harness validity: how late open-loop sends ran"},
	{"trace.overhead_frac", "ratio", "T", "harness validity: 1 - traced/untraced in-process replay rate"},
}

// endToEnd lists the end-to-end metrics every untraced run prints.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"slo_frac", "ratio"},
	{"cpu_ms_per_op", "ms"},
	{"rss_peak_mb", "MB"},
}
