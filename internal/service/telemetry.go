package service

import (
	"strconv"

	"jellyfish/internal/capsearch"
	"jellyfish/internal/faultinject"
	"jellyfish/internal/mcf"
	"jellyfish/internal/persist"
	"jellyfish/internal/telemetry"
)

// The service's telemetry bundle: every metric slot and flight recorder
// the daemon owns, registered once at construction and surfaced on
// GET /metrics (Prometheus text format) and GET /v1/trace/{id} (the
// recorded span tree of a finished job). The zero tele — the
// Options.DisableTelemetry configuration — has a nil registry and nil
// instruments, and disables everything through the instruments'
// nil-safety; there is no second code path, which is what the
// byte-identity tests in telemetry_test.go rely on.
//
// Confinement: counters and histograms are shared atomics and may be
// written from any goroutine; each shard worker's flight Recorder is
// confined to that worker's goroutine (workerTele), and the Captures
// it extracts are immutable and shared freely. Telemetry is
// one-way — nothing read from an instrument may influence a response —
// and jellyvet's obsconfine analyzer enforces that across the package.

// recorderSpans is each shard worker's flight-recorder window: the ring
// holds the most recent completed spans, so a trace covers roughly this
// many probe/trial/phase spans before truncation (Trace.Dropped counts
// the overflow). At ~56 bytes a span this is ~56 KiB per worker. A
// finished execution retains its spans as a telemetry.Capture at 32
// bytes a span (a ~1,000-span capacity search keeps ~32 KB, shared by
// its job and its response-tier entry); the span tree is built only
// when GET /v1/trace serves it.
const recorderSpans = 1024

// The warm-state cache tiers, indexing each worker's hit/miss counters.
// tierResp, the response tier, follows them: it is shared by every
// worker, so its counters are the scheduler's (tele.respHits).
const (
	tierFamily = iota
	tierChain
	tierSim
	numWarmTiers
	tierResp = numWarmTiers
)

// warmTierNames label the warm tiers' hit/miss series.
var warmTierNames = [numWarmTiers]string{"family", "chain", "sim"}

// workerTele is one shard worker's telemetry: the goroutine-confined
// flight recorder plus that worker's per-tier cache counters and the
// kernel observability bundles threaded into solver and search calls.
// The zero value (telemetry disabled) records nothing — every field is
// nil and every instrument is nil-safe.
//
//jellyvet:confined
type workerTele struct {
	rec *telemetry.Recorder

	hits, misses [numWarmTiers]*telemetry.Counter

	// search carries the worker's recorder and the shared kernel
	// counters into capacity searches (capsearch.probe > capsearch.trial
	// > mcf.solve spans); search.Solver is the matching mcf bundle.
	search *capsearch.Obs
}

// tele is the server-wide bundle behind /metrics. The zero value
// (telemetry disabled) records nothing.
type tele struct {
	reg *telemetry.Registry

	opDur        map[string]*telemetry.Histogram
	queueWait    *telemetry.Histogram
	sseSubs      *telemetry.Gauge
	replayDur    *telemetry.Histogram
	store        *persist.Obs
	deduped      *telemetry.Counter
	syncRejected *telemetry.Counter
	// respHits and respMisses count the shared response tier: one hit
	// or one miss per request that reaches the tier (deduplicated
	// followers count neither).
	respHits, respMisses *telemetry.Counter

	// Failure-containment families (DESIGN.md §16).
	panics        *telemetry.Counter
	degradedState *telemetry.Gauge
	degradedFlips *telemetry.Counter
	quotaRejects  *telemetry.Counter

	workers []*workerTele
}

// newTele builds the registry and every fixed instrument slot for a
// daemon with the given worker count. Registration order groups series
// of one family together so the exposition renders each family as one
// block.
func newTele(workers int) *tele {
	reg := telemetry.NewRegistry()
	t := &tele{
		reg:     reg,
		opDur:   make(map[string]*telemetry.Histogram, len(ops)),
		workers: make([]*workerTele, workers),
	}
	for i := range t.workers {
		t.workers[i] = &workerTele{rec: telemetry.NewRecorder(recorderSpans)}
	}

	for _, o := range ops {
		t.opDur[o.name] = reg.Histogram("jellyfishd_op_duration_seconds",
			"Cold execution time of one planning operation on its shard worker (cache hits excluded).",
			telemetry.Labels("op", o.name))
	}
	t.queueWait = reg.Histogram("jellyfishd_scheduler_queue_wait_seconds",
		"Time a task spent queued on its shard before execution began; only queued requests are observed (response-tier hits are served before the queue, deduplicated followers wait on their leader).", "")
	t.sseSubs = reg.Gauge("jellyfishd_sse_subscribers",
		"Currently connected job event-stream (SSE) subscribers.", "")
	t.replayDur = reg.Histogram("jellyfishd_jobstore_replay_seconds",
		"Durable job store replay time at boot (snapshot parse + journal apply + job relaunch).", "")
	t.panics = reg.Counter("jellyfishd_panics_contained_total",
		"Kernel panics recovered on a shard worker (job failed, warm state discarded, worker kept alive).", "")
	t.degradedState = reg.Gauge("jellyfishd_degraded",
		"1 while the daemon is serving read-only after persist-write failures, 0 when healthy.", "")
	t.degradedFlips = reg.Counter("jellyfishd_degraded_transitions_total",
		"Healthy-to-degraded transitions of the durable job store.", "")
	t.quotaRejects = reg.Counter("jellyfishd_quota_rejected_total",
		"Requests shed with 429 by the per-client quota layer.", "")
	reg.CounterFunc("jellyfishd_faultinject_fires_total",
		"Failpoint firings under the active fault schedule (0 outside chaos runs).", "",
		//jellyvet:allow faultconfine -- scrape-time counter read, not a failpoint: runs on /metrics requests only, never on a response path
		func() int64 { return int64(faultinject.FireCount()) })
	t.store = &persist.Obs{
		Appends: reg.Counter("jellyfishd_jobstore_appends_total",
			"Journal records appended to the durable job store.", ""),
		Snapshots: reg.Counter("jellyfishd_jobstore_snapshots_total",
			"Snapshots written by the durable job store.", ""),
		AppendDur: reg.Histogram("jellyfishd_jobstore_append_seconds",
			"Journal append latency (write reaching the kernel).", ""),
		SnapshotDur: reg.Histogram("jellyfishd_jobstore_snapshot_seconds",
			"Snapshot write latency (temp file, fsync, rename, journal reset).", ""),
	}

	const hitsHelp = "Cache hits by tier: the shared response tier (tier=\"resp\", no worker label) and each worker's warm-state tiers."
	t.respHits = reg.Counter("jellyfishd_cache_hits_total", hitsHelp, telemetry.Labels("tier", "resp"))
	for tier, name := range warmTierNames {
		for i, wt := range t.workers {
			wt.hits[tier] = reg.Counter("jellyfishd_cache_hits_total", hitsHelp,
				telemetry.Labels("worker", strconv.Itoa(i), "tier", name))
		}
	}
	const missesHelp = "Cache misses by tier: the shared response tier (tier=\"resp\", no worker label) and each worker's warm-state tiers."
	t.respMisses = reg.Counter("jellyfishd_cache_misses_total", missesHelp, telemetry.Labels("tier", "resp"))
	for tier, name := range warmTierNames {
		for i, wt := range t.workers {
			wt.misses[tier] = reg.Counter("jellyfishd_cache_misses_total", missesHelp,
				telemetry.Labels("worker", strconv.Itoa(i), "tier", name))
		}
	}

	// Kernel-level instruments are shared across workers (they are plain
	// atomics); only the flight recorder is per-worker.
	solver := &mcf.Obs{
		Solves: reg.Counter("jellyfishd_solver_solves_total",
			"Complete max-concurrent-flow solves.", ""),
		Phases: reg.Counter("jellyfishd_solver_phases_total",
			"Garg–Könemann phases across all solves.", ""),
		Batches: reg.Counter("jellyfishd_solver_batches_total",
			"Source-batch Dijkstra sweeps across all phases.", ""),
		DualRefreshes: reg.Counter("jellyfishd_solver_dual_refreshes_total",
			"Dual upper-bound refreshes across all solves.", ""),
		SolveDur: reg.Histogram("jellyfishd_solver_solve_seconds",
			"Wall time of one complete solve.", ""),
		PhaseDur: reg.Histogram("jellyfishd_solver_phase_seconds",
			"Wall time of one Garg–Könemann phase.", ""),
	}
	probes := reg.Counter("jellyfishd_capsearch_probes_total",
		"Capacity-search feasibility probes.", "")
	trials := reg.Counter("jellyfishd_capsearch_trials_total",
		"Capacity-search trial evaluations.", "")
	probeDur := reg.Histogram("jellyfishd_capsearch_probe_seconds",
		"Wall time of one feasibility probe (all its trials).", "")
	for _, wt := range t.workers {
		wt.search = &capsearch.Obs{
			Probes:   probes,
			Trials:   trials,
			ProbeDur: probeDur,
			Rec:      wt.rec,
			Solver:   &mcf.Obs{Solves: solver.Solves, Phases: solver.Phases, Batches: solver.Batches, DualRefreshes: solver.DualRefreshes, SolveDur: solver.SolveDur, PhaseDur: solver.PhaseDur, Rec: wt.rec},
		}
	}
	return t
}

// bindScheduler registers the read-out bridges over the scheduler's own
// state (per-worker queue depth, shared response-tier and per-worker
// cache sizes, family placements) and the scheduler's counters. Called
// once, right after the scheduler is built; a no-op with telemetry
// disabled.
func (t *tele) bindScheduler(s *scheduler) {
	if t.reg == nil {
		return
	}
	for i, w := range s.workers {
		t.reg.GaugeFunc("jellyfishd_scheduler_queue_depth",
			"Tasks queued on the shard worker.",
			telemetry.Labels("worker", strconv.Itoa(i)),
			func() int64 { return int64(len(w.queue)) })
	}
	const entriesHelp = "Cache entries: the shared response tier (tier=\"resp\") and each worker's warm-state cache (worker label)."
	t.reg.GaugeFunc("jellyfishd_cache_entries", entriesHelp,
		telemetry.Labels("tier", "resp"), s.resp.size.Load)
	for i, w := range s.workers {
		t.reg.GaugeFunc("jellyfishd_cache_entries", entriesHelp,
			telemetry.Labels("worker", strconv.Itoa(i)), w.cacheLen.Load)
	}
	const placementsHelp = "First placements of a topology family: on its hash shard (placement=\"hash\"), or on a shard with fewer queued and running tasks (placement=\"least_loaded\")."
	for i, name := range [...]string{placeHash: "hash", placeLeastLoaded: "least_loaded"} {
		t.reg.CounterFunc("jellyfishd_scheduler_placements_total", placementsHelp,
			telemetry.Labels("placement", name), s.placements[i].Load)
	}
	t.deduped = t.reg.Counter("jellyfishd_sched_deduped_total",
		"Requests coalesced onto an identical in-flight execution.", "")
	t.syncRejected = t.reg.Counter("jellyfishd_sync_rejected_total",
		"Synchronous requests shed with 429 at the admission gate.", "")
}

// worker returns shard i's telemetry (an inert zero bundle when
// telemetry is disabled, so worker code never branches on enablement).
func (t *tele) worker(i int) *workerTele {
	if t.reg == nil {
		return &workerTele{}
	}
	return t.workers[i]
}
