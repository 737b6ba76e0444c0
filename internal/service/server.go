package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"jellyfish/internal/persist"
	"jellyfish/internal/telemetry"
)

// Options configure a Server. Worker count and cache size trade memory
// and parallelism for wall-clock only: responses are byte-identical for
// every setting (the determinism guarantee, tested in
// determinism_test.go).
type Options struct {
	// Workers is the number of shard workers (default 4). Each owns one
	// warm-state cache and executes its shard's requests sequentially.
	Workers int
	// SolverWorkers bounds each flow solve's CPU parallelism (default 1).
	// 0 selects all cores only when Workers is 1; with several shard
	// workers it falls back to 1, because many workers each spawning
	// all-core solves would oversubscribe the machine — cross-request
	// parallelism comes from Workers.
	SolverWorkers int
	// CacheEntries is the cache budget per worker (default 128 entries).
	// Each worker keeps a sixth of it for its warm-state tiers (family,
	// chain, sim); the rest of every worker's budget pools into one
	// response tier shared by all workers, so the total stays
	// Workers × CacheEntries.
	CacheEntries int
	// MaxSyncInflight bounds concurrently admitted synchronous planning
	// requests (default 8×Workers; negative = unlimited). Beyond the
	// bound the server sheds load immediately — 429 with a Retry-After
	// hint — instead of queueing unbounded work on the shard workers;
	// heavy sweeps belong on the job API, which is not admission-gated.
	MaxSyncInflight int
	// StateDir, when set, makes the job store durable: submissions and
	// terminal transitions are journaled there and replayed on the next
	// boot — queued and running jobs re-execute (byte-identical, by the
	// determinism guarantee), finished jobs stay fetchable. Empty =
	// memory-only daemon. See DESIGN.md §14.
	StateDir string
	// SnapshotEvery is the journal compaction cadence: after this many
	// appended records the store writes a snapshot and truncates the
	// journal (default 256). Only meaningful with StateDir.
	SnapshotEvery int
	// ClientQPS, when positive, enables per-client quotas on the
	// work-creating endpoints (sync planning + job submission): each
	// client host earns this many requests per second, spends from a
	// bucket of ClientBurst, and is shed with 429 + Retry-After beyond
	// it. 0 (the default) disables quotas. Reads are never metered.
	ClientQPS float64
	// ClientBurst is the quota bucket depth (default ClientQPS+1).
	ClientBurst int
	// DisableTelemetry turns the observability surface off: no metric
	// slots, no flight recorders, GET /metrics answers 404 and
	// GET /v1/trace/{id} reports trace_not_recorded. Planning responses
	// are byte-identical either way (asserted in telemetry_test.go) —
	// telemetry is strictly one-way.
	DisableTelemetry bool
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.SolverWorkers < 0 {
		o.SolverWorkers = 1
	}
	if o.SolverWorkers == 0 && o.Workers > 1 {
		// Many shard workers each spawning all-core solves oversubscribes
		// the machine; default per-solve parallelism to serial.
		o.SolverWorkers = 1
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 128
	}
	if o.MaxSyncInflight == 0 {
		o.MaxSyncInflight = 8 * o.Workers
	}
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 256
	}
	return o
}

// A Server is the jellyfishd planning service: construct with New, mount
// Handler on any http.Server, Close on shutdown.
type Server struct {
	sched *scheduler
	jobs  *jobStore
	mux   *http.ServeMux
	// tele is the telemetry bundle behind /metrics and /v1/trace (the
	// inert zero bundle with Options.DisableTelemetry).
	tele *tele
	// syncSem admits synchronous planning requests (admission control);
	// nil = unlimited.
	syncSem chan struct{}
	// quota is the per-client token-bucket table (nil = quotas disabled).
	quota *quotaTable
}

// New builds a Server with its worker pool running. With a StateDir it
// opens (or creates) the durable job store there and replays it before
// returning: finished jobs are fetchable again, unfinished ones are
// already re-running. A corrupt store fails construction loudly — a
// daemon that silently dropped journaled jobs would be worse than one
// that refuses to start.
func New(opt Options) (*Server, error) {
	opt = opt.withDefaults()
	tl := &tele{}
	if !opt.DisableTelemetry {
		tl = newTele(opt.Workers)
	}
	s := &Server{
		sched: newScheduler(opt.Workers, opt.SolverWorkers, opt.CacheEntries, tl),
		jobs:  newJobStore(),
		mux:   http.NewServeMux(),
		tele:  tl,
	}
	s.jobs.tele = tl
	tl.bindScheduler(s.sched)
	if opt.ClientQPS > 0 {
		s.quota = newQuotaTable(opt.ClientQPS, opt.ClientBurst, tl)
	}
	if opt.MaxSyncInflight > 0 {
		s.syncSem = make(chan struct{}, opt.MaxSyncInflight)
	}
	if opt.StateDir != "" {
		store, state, err := persist.Open(opt.StateDir)
		if err != nil {
			s.sched.close()
			return nil, fmt.Errorf("opening state dir %s: %w", opt.StateDir, err)
		}
		store.SetObs(tl.store)
		s.jobs.store = store
		s.jobs.snapshotEvery = opt.SnapshotEvery
		replayT := telemetry.StartTimer()
		if err := s.jobs.recoverJobs(s.sched, state); err != nil {
			store.Close()
			s.sched.close()
			return nil, fmt.Errorf("replaying state dir %s: %w", opt.StateDir, err)
		}
		tl.replayDur.ObserveSince(replayT)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/trace/{id}", s.handleTrace)
	for _, o := range ops {
		s.mux.HandleFunc("POST /v1/"+o.name, s.handleSync(o))
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleJobCancel)
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close is Drain with an already-expired context: it cancels outstanding
// jobs and shuts the worker pool down once they have exited. Interrupted
// jobs are NOT journaled as terminal, so a durable store re-runs them on
// the next boot — Close is the abrupt path; Drain is the graceful one.
//
//jellyvet:allow deadexport -- called by jfbench (nested module)
func (s *Server) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Drain(ctx)
}

// Drain is the graceful counterpart to Close: stop admitting work, let
// in-flight jobs finish (journaling their results), and only once ctx
// expires fall back to cancelling stragglers — which are deliberately
// left un-journaled so the next boot re-runs them from their durable
// submit record (their "checkpoint"). Finally the store is snapshotted
// and closed, and the worker pool shut down.
func (s *Server) Drain(ctx context.Context) {
	s.jobs.mu.Lock()
	s.jobs.draining = true
	jobs := make([]*job, 0, len(s.jobs.jobs))
	for _, j := range s.jobs.jobs { //jellyvet:allow determinism -- drain waits on every job; order is irrelevant
		jobs = append(jobs, j)
	}
	s.jobs.mu.Unlock()
	for _, j := range jobs {
		select {
		case <-j.done:
		case <-ctx.Done():
		}
		// The select may take a finished job's done even when ctx has
		// expired too, so test ctx itself: out of patience, interrupt
		// everything still running and wait for the prompt exits
		// (queued jobs at dequeue, running ones at the next ctx poll),
		// so the store never closes under a finish in flight.
		if ctx.Err() != nil {
			for _, j := range jobs {
				j.cancel()
			}
			for _, j := range jobs {
				<-j.done
			}
			break
		}
	}
	s.closeStore()
	s.sched.close()
}

// closeStore writes a final snapshot (so the next boot replays a compact
// store) and closes the journal. Safe without a store, and idempotent.
func (s *Server) closeStore() {
	js := s.jobs
	js.pmu.Lock()
	defer js.pmu.Unlock()
	if js.store == nil {
		return
	}
	js.snapshotUnderPMU()
	if err := js.store.Close(); err != nil {
		fmt.Printf("jellyfishd: closing state store: %v\n", err)
	}
	js.store = nil
}

// handleHealthz reports liveness. A degraded daemon still answers 200 —
// it is alive and serving reads — but says so, so probes and operators
// can tell "healthy" from "read-only until persist writes recover".
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.jobs.degraded.Load() {
		w.Write([]byte(`{"status":"degraded"}`))
		return
	}
	w.Write([]byte(`{"status":"ok"}`))
}

// handleMetrics serves the Prometheus text exposition. Scraping walks
// fixed registry slots and read-out bridges; it never takes a lock an
// instrument writer holds, so a scrape cannot stall a solve.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.tele.reg == nil {
		writeErr(w, &apiError{Status: http.StatusNotFound, Code: "telemetry_disabled",
			Message: "telemetry is disabled on this daemon"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.tele.reg.WritePrometheus(w)
}

// handleTrace serves a finished job's recorded span tree — the flight-
// recorder view of what its execution did (solver phases, probes,
// chain steps), with wall-clock timings. Traces are diagnostics: they
// live only in memory (a restarted daemon answers trace_not_recorded
// for replayed jobs) and are NOT covered by the determinism guarantee.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, aerr := s.jobs.get(r.PathValue("id"))
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	j.mu.Lock()
	status := j.status
	trace := j.trace
	j.mu.Unlock()
	if !terminalStatus(status) {
		writeErr(w, &apiError{Status: http.StatusConflict, Code: "not_finished",
			Message: fmt.Sprintf("job is %s; traces are available once it finishes", status)})
		return
	}
	if trace == nil {
		writeErr(w, &apiError{Status: http.StatusNotFound, Code: "trace_not_recorded",
			Message: "no trace recorded for this job (telemetry disabled, or the job predates this daemon process)"})
		return
	}
	writeJSON(w, http.StatusOK, TraceResponse{JobID: j.id, Trace: trace})
}

// decodeStrict unmarshals a request document, rejecting unknown fields so
// typos ("trails") fail loudly instead of silently selecting defaults.
func decodeStrict(data []byte, v any) *apiError {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("invalid_json", "%v", err)
	}
	// A second document in the body is a client bug too.
	if dec.More() {
		return badRequest("invalid_json", "trailing data after request document")
	}
	return nil
}

// readBody reads an HTTP request body.
func readBody(r *http.Request) ([]byte, *apiError) {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, 16<<20))
	if err != nil {
		return nil, badRequest("invalid_body", "reading request body: %v", err)
	}
	return body, nil
}

// handleSync serves an op's sync route (POST /v1/{name}). Malformed
// requests are rejected before runSync, without consuming an admission
// slot or quota.
func (s *Server) handleSync(o op) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, aerr := readBody(r)
		var p *plan
		if aerr == nil {
			p, aerr = o.plan(body)
		}
		if aerr != nil {
			writeErr(w, aerr)
			return
		}
		s.runSync(w, r, p)
	}
}

// runSync admits, schedules with single-flight dedup, and writes the
// response. Sync executions deliberately run with a background context:
// a dropped client must not abort work that concurrent identical
// requests — or the response cache — will want. Heavy operations that
// need cancellation belong on the job API.
//
// Admission happens before scheduling: when MaxSyncInflight requests are
// already in flight the server answers 429 with a Retry-After hint
// instead of queueing — saturation should surface at the edge, not as
// unbounded shard-queue latency.
func (s *Server) runSync(w http.ResponseWriter, r *http.Request, p *plan) {
	if qerr := s.quota.checkQuota(w, r); qerr != nil {
		writeErr(w, qerr)
		return
	}
	s.jobs.mu.Lock()
	draining := s.jobs.draining
	s.jobs.mu.Unlock()
	if draining {
		writeErr(w, &apiError{Status: http.StatusServiceUnavailable, Code: "shutting_down",
			Message: "server is draining; no new work admitted"})
		return
	}
	if s.syncSem != nil {
		select {
		case s.syncSem <- struct{}{}:
			defer func() { <-s.syncSem }()
		default:
			s.tele.syncRejected.Inc()
			w.Header().Set("Retry-After", "1")
			writeErr(w, &apiError{
				Status: http.StatusTooManyRequests, Code: "overloaded",
				Message: "synchronous request limit reached; retry shortly or submit as a job (POST /v1/jobs)",
			})
			return
		}
	}
	resp, _, err := s.sched.do(context.Background(), p, true, nil, nil)
	if err != nil {
		writeSchedErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(resp)
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	body, aerr := readBody(r)
	var spec JobSpec
	if aerr == nil {
		aerr = decodeStrict(body, &spec)
	}
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	if qerr := s.quota.checkQuota(w, r); qerr != nil {
		writeErr(w, qerr)
		return
	}
	v, aerr := s.jobs.submit(s.sched, &spec)
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	writeJSON(w, http.StatusAccepted, v)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobView `json:"jobs"`
	}{Jobs: s.jobs.list()})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, aerr := s.jobs.get(r.PathValue("id"))
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, j.view(true))
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, aerr := s.jobs.get(r.PathValue("id"))
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	j.cancelJob()
	writeJSON(w, http.StatusOK, j.view(false))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeErr(w, &apiError{Status: http.StatusInternalServerError, Code: "internal", Message: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
}

func writeErr(w http.ResponseWriter, aerr *apiError) {
	b, _ := json.Marshal(errorBody{Error: aerr})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(aerr.Status)
	w.Write(b)
}

// writeSchedErr maps scheduler errors onto HTTP.
func writeSchedErr(w http.ResponseWriter, err error) {
	var aerr *apiError
	switch {
	case errors.As(err, &aerr):
		writeErr(w, aerr)
	case errors.Is(err, errSchedulerClosed):
		writeErr(w, &apiError{Status: http.StatusServiceUnavailable, Code: "shutting_down", Message: "server is shutting down"})
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		writeErr(w, &apiError{Status: http.StatusServiceUnavailable, Code: "cancelled", Message: err.Error()})
	default:
		writeErr(w, &apiError{Status: http.StatusInternalServerError, Code: "internal", Message: err.Error()})
	}
}
