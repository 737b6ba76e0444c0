package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"jellyfish/internal/persist"
	"jellyfish/internal/service"
)

// A span is one timed call into a layer: spans of one replayed request
// share req, and parent is the index of the enclosing span (-1 at the
// root). kb is the payload size of codec spans.
type span struct {
	name       string
	start, end time.Duration
	parent     int
	req        int
	kb         float64
}

// A tracer records spans in memory for the report at the end of the run.
// An off tracer records nothing, so the same replay can run untraced to
// measure the recorder's overhead. Replays are single-goroutine, so the
// open spans form a stack.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) begin(name string, req int) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent, req: req})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].end = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
}

// appendSpans appends the spans of another tracer, re-basing their
// parent indices.
func appendSpans(dst, src []span) []span {
	off := len(dst)
	for _, s := range src {
		if s.parent >= 0 {
			s.parent += off
		}
		dst = append(dst, s)
	}
	return dst
}

// do records fn as one span.
func (t *tracer) do(name string, req int, fn func()) {
	id := t.begin(name, req)
	fn()
	t.end(id)
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	children := make([][]int, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	for i, kids := range children {
		// Children start in order; merge their overlapping intervals,
		// clipped to the parent.
		var covered, hi time.Duration = 0, spans[i].start
		for _, k := range kids {
			lo := max(spans[k].start, hi)
			end := min(spans[k].end, spans[i].end)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] -= covered
	}
	return self
}

// spanStats aggregates self times by span name.
type spanStats map[string]*spanAgg

type spanAgg struct {
	n     int
	total time.Duration
	kb    float64
}

func aggregate(spans []span) spanStats {
	st := spanStats{}
	for i, d := range selfTimes(spans) {
		s := st[spans[i].name]
		if s == nil {
			s = &spanAgg{}
			st[spans[i].name] = s
		}
		s.n++
		s.total += d
		s.kb += spans[i].kb
	}
	return st
}

// meanMs returns the mean self time of a span name in ms and its count.
func (st spanStats) meanMs(name string) (float64, int) {
	s := st[name]
	if s == nil {
		return 0, 0
	}
	return float64(s.total) / 1e6 / float64(s.n), s.n
}

// usPerKB returns a codec span's self time per KB of payload.
func (st spanStats) usPerKB(name string) (float64, int) {
	s := st[name]
	if s == nil {
		return 0, 0
	}
	return ratio(float64(s.total)/1e3, s.kb), s.n
}

// replayPerClass bounds the distinct requests replayed in-process per op
// class, keeping a traced run within a minute.
var replayPerClass = map[string]int{
	"design": 12, "evaluate.optimal": 4, "evaluate.transport": 8, "evaluate.estimator": 9,
	"whatif": 6, "rewire-plan": 6, "capacity-search": 3, "job.capacity-search": 4, "job.design": 12,
}

// replaySet picks the distinct requests the measured phase answered, in
// op order, up to replayPerClass each.
func replaySet(w *workload, ans *answers) []int {
	seen := map[int]bool{}
	perClass := map[string]int{}
	var set []int
	for _, o := range w.ops {
		if _, ok := ans.get(o); !ok || seen[o] {
			continue
		}
		seen[o] = true
		if cl := w.reqs[o].class; perClass[cl] < replayPerClass[cl] {
			perClass[cl]++
			set = append(set, o)
		}
	}
	return set
}

// replay sends each request through an in-process service.Server
// handler twice — cold, then as a response-cache hit — and then calls
// each layer the request reaches through its exported entry point. It
// returns the replay's wall time. With compare set, the handler's
// answers must equal the daemon's, and the layers' answers the
// library's (callLayers).
func replay(tr *tracer, dir string, w *workload, set []int, ans *answers, compare bool, rep *report) (time.Duration, error) {
	srv, err := service.New(service.Options{Workers: 2, SolverWorkers: 1, CacheEntries: 128})
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	h := srv.Handler()
	store, _, err := persist.Open(dir)
	if err != nil {
		return 0, err
	}
	defer store.Close()
	appends := 0
	start := time.Now()
	for _, q := range set {
		r := &w.reqs[q]
		root := tr.begin("op", q)
		var got []byte
		var status int
		tr.do("service.handler", q, func() { status, got = serve(h, r) })
		if status/100 != 2 {
			rep.fail("request %d: in-process handler status %d: %.200s", q, status, got)
		} else if want, _ := ans.get(q); compare && sha256.Sum256(got) != want {
			rep.fail("request %d: in-process handler answer differs from the daemon's", q)
		}
		tr.do("service.front", q, func() { serve(h, r) })
		var want []byte
		if compare {
			want = got
		}
		if err := callLayers(tr, q, r, want); err != nil {
			rep.fail("request %d (%s): %v", q, r.class, err)
		}
		if r.path == "" {
			// A durable job: its submission and terminal records are
			// journaled and its result stored as a blob.
			tr.do("persist.blob_put", q, func() { _, err = store.PutBlob(got) })
			for _, rec := range [][]byte{r.bytes(), got[:min(len(got), 64)]} {
				if err == nil {
					tr.do("persist.append", q, func() { err = store.Append(rec) })
				}
				if appends++; err == nil && appends%256 == 0 {
					tr.do("persist.snapshot", q, func() { err = store.WriteSnapshot([]byte(fmt.Sprintf(`{"records":%d}`, appends))) })
				}
			}
			if err != nil {
				return 0, err
			}
		}
		tr.end(root)
	}
	return time.Since(start), nil
}

// serve sends a request's synchronous form through the handler.
func serve(h http.Handler, r *request) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.syncPath(), bytes.NewReader(r.bytes())))
	return rec.Code, rec.Body.Bytes()
}

// traceDaemonWorkload derives the per-layer metrics of a daemon
// workload: /metrics deltas over its measured phase, then the layer
// spans of an in-process replay of its distinct requests, run once
// untraced and once traced to measure the recorder's overhead.
func traceDaemonWorkload(cfg config, w *workload, p *phase, ans *answers, rep *report) error {
	set := replaySet(w, ans)
	// Untraced and traced passes alternate, starting and ending untraced
	// so warm-up effects of the first pass do not read as tracing
	// overhead, until each side has run at least a second.
	var wallOff, wallOn time.Duration
	var nOff, nOn int
	var spans []span
	for i := 0; i < 3 || wallOff < time.Second || wallOn < time.Second || i%2 == 0; i++ {
		tr := newTracer(i%2 == 1)
		wall, err := replay(tr, filepath.Join(cfg.work, fmt.Sprintf("replay-%d", i)), w, set, ans, i == 1, rep)
		if err != nil {
			return err
		}
		if !tr.on {
			wallOff += wall
			nOff++
			continue
		}
		wallOn += wall
		nOn++
		spans = appendSpans(spans, tr.spans)
	}
	rep.header = append(rep.header, fmt.Sprintf("replay: %d distinct requests in-process, %d traced passes, %d spans", len(set), nOn, len(spans)))
	setMetricLayers(rep, w, p, aggregate(spans))
	rep.setLayer("trace.overhead_frac", 1-(wallOff.Seconds()/float64(nOff))/(wallOn.Seconds()/float64(nOn)), nOn*len(set))
	return nil
}

// setMetricLayers fills the per-layer metrics from /metrics deltas and
// replay spans.
func setMetricLayers(rep *report, w *workload, p *phase, st spanStats) {
	d := delta(p.before, p.after)
	lat, _ := p.latencies()
	n := len(lat)
	const qw = "jellyfishd_scheduler_queue_wait_seconds"
	queued := int(d[qw+"_count"])
	rep.setLayer("service.queue_wait_ms_mean", d.histMean(qw)*1e3, queued)
	rep.setLayer("service.queue_wait_ms_p99", histQuantile(p.before, p.after, qw, 0.99)*1e3, queued)
	for _, op := range []string{"design", "evaluate", "whatif", "capacity-search", "rewire-plan"} {
		l := `op="` + op + `"`
		rep.setLayer("service.exec_ms_mean."+op, d.histMean("jellyfishd_op_duration_seconds", l)*1e3, int(d.sum("jellyfishd_op_duration_seconds_count", l)))
	}
	front, nFront := st.meanMs("service.front")
	rep.setLayer("service.front_us_mean", front*1e3, nFront)
	for _, tier := range []string{"resp", "family", "chain", "sim"} {
		l := `tier="` + tier + `"`
		hits, misses := d.sum("jellyfishd_cache_hits_total", l), d.sum("jellyfishd_cache_misses_total", l)
		rep.setLayer("service.hit_ratio."+tier, ratio(hits, hits+misses), int(hits+misses))
	}
	rep.setLayer("service.deduped", d.sum("jellyfishd_sched_deduped_total"), 1)
	rep.setLayer("service.sync_rejected", d.sum("jellyfishd_sync_rejected_total"), 1)
	latMean := mean(lat)
	attributed := ratio((d.sum(qw+"_sum")+d.sum("jellyfishd_op_duration_seconds_sum"))*1e3, float64(n)) + front
	rep.setLayer("service.latency_mean_ms", latMean, n)
	rep.setLayer("service.attributed_ms", attributed, n)
	rep.setLayer("service.unattributed_ms", latMean-attributed, n)

	rep.setLayer("persist.appends", d.sum("jellyfishd_jobstore_appends_total"), 1)
	rep.setLayer("persist.append_us_mean", d.histMean("jellyfishd_jobstore_append_seconds")*1e6, int(d["jellyfishd_jobstore_append_seconds_count"]))
	rep.setLayer("persist.snapshots", d.sum("jellyfishd_jobstore_snapshots_total"), 1)
	rep.setLayer("persist.snapshot_ms_mean", d.histMean("jellyfishd_jobstore_snapshot_seconds")*1e3, int(d["jellyfishd_jobstore_snapshot_seconds_count"]))
	rep.setLayer("persist.replay_ms", p.before.histMean("jellyfishd_jobstore_replay_seconds")*1e3, int(p.before["jellyfishd_jobstore_replay_seconds_count"]))
	v, k := st.meanMs("persist.blob_put")
	rep.setLayer("persist.blob_put_us_mean", v*1e3, k)

	setSpanLayers(rep, st)

	solves := d.sum("jellyfishd_solver_solves_total")
	phases := d.sum("jellyfishd_solver_phases_total")
	rep.setLayer("mcf.solves", solves, 1)
	rep.setLayer("mcf.phases", phases, 1)
	rep.setLayer("mcf.batches", d.sum("jellyfishd_solver_batches_total"), 1)
	rep.setLayer("mcf.dual_refreshes", d.sum("jellyfishd_solver_dual_refreshes_total"), 1)
	rep.setLayer("mcf.phases_per_solve", ratio(phases, solves), int(solves))
	rep.setLayer("mcf.solve_ms_mean", d.histMean("jellyfishd_solver_solve_seconds")*1e3, int(solves))
	rep.setLayer("mcf.phase_us_mean", d.histMean("jellyfishd_solver_phase_seconds")*1e6, int(phases))
	probes := d.sum("jellyfishd_capsearch_probes_total")
	searches := d.sum("jellyfishd_op_duration_seconds_count", `op="capacity-search"`)
	rep.setLayer("capsearch.probes", probes, 1)
	rep.setLayer("capsearch.trials", d.sum("jellyfishd_capsearch_trials_total"), 1)
	rep.setLayer("capsearch.probes_per_search", ratio(probes, searches), int(searches))
	rep.setLayer("capsearch.probe_ms_mean", d.histMean("jellyfishd_capsearch_probe_seconds")*1e3, int(probes))
	v, k = st.meanMs("capsearch.family_build")
	rep.setLayer("capsearch.family_build_ms_mean", v, k)

	// Layers only the figures workload reaches.
	rep.setLayer("packetsim.simulate_ms_mean", 0, 0)
	rep.setLayer("parallel.efficiency", 0, 0)
	for _, id := range []string{"table1", "fig11", "ablation-packet-vs-fluid"} {
		rep.setLayer("experiments.wall_s."+id, 0, 0)
	}
	var late []float64
	for _, o := range p.outs {
		if o.started {
			late = append(late, float64(o.sent-o.due)/1e6)
		}
	}
	rep.setLayer("gen.late_ms_p99", percentile(late, 99), len(late))
}

// setSpanLayers fills the per-layer metrics read from replay spans
// shared by every workload.
func setSpanLayers(rep *report, st spanStats) {
	for _, m := range []struct{ metric, span string }{
		{"topology.build_ms_mean", "topology.build"},
		{"topology.scenario_ms_mean", "topology.scenario"},
		{"graph.pathstats_ms_mean", "graph.pathstats"},
		{"estimate.ms_mean.bisection", "estimate.bisection"},
		{"estimate.ms_mean.spectral", "estimate.spectral"},
		{"estimate.ms_mean.sampled-mcf", "estimate.sampled-mcf"},
		{"routing.compile_ms_mean", "routing.compile"},
		{"flowsim.simulate_ms_mean", "flowsim.simulate"},
	} {
		v, n := st.meanMs(m.span)
		rep.setLayer(m.metric, v, n)
	}
	v, n := st.usPerKB("topology.blueprint_decode")
	rep.setLayer("topology.blueprint_decode_us_per_kb", v, n)
	v, n = st.usPerKB("topology.blueprint_encode")
	rep.setLayer("topology.blueprint_encode_us_per_kb", v, n)
}
