package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"jellyfish/internal/persist"
	"jellyfish/internal/telemetry"
)

// The async job API: heavy planning operations (capacity searches, long
// what-if chains, multi-trial evaluations) submitted as jobs instead of
// held-open requests. A job runs through the same scheduler as the sync
// endpoints — same shard routing, same warm-state caches, same canonical
// digests — so its result bytes are identical to the sync endpoint's for
// the same request (asserted in the e2e suite). Job envelopes (ids,
// timestamps) are bookkeeping and are NOT covered by the determinism
// guarantee; results and streamed progress payloads are.
//
// With a state directory configured (Options.StateDir), the store is
// durable: every submission and terminal transition is journaled, and a
// restarted daemon replays the journal so queued/running jobs re-execute
// (byte-identical by the determinism guarantee) and finished jobs stay
// fetchable. See persistence.go and DESIGN.md §14.

// Job states.
const (
	jobQueued    = "queued"
	jobRunning   = "running"
	jobSucceeded = "succeeded"
	jobFailed    = "failed"
	jobCancelled = "cancelled"
)

func terminalStatus(s string) bool {
	return s == jobSucceeded || s == jobFailed || s == jobCancelled
}

type job struct {
	id  string
	typ string
	// request is the submitted request document, retained so a durable
	// store can journal it and a restarted daemon can re-plan it.
	request json.RawMessage

	mu sync.Mutex
	// eventsCh broadcasts on every append to events and on the terminal
	// transition, waking SSE subscribers; it is a *sync.Cond over mu.
	eventsCh *sync.Cond
	status   string
	result   []byte
	events   [][]byte
	// trace is the execution's recorded span capture, rendered as a tree
	// only when GET /v1/trace/{id} serves it. In-memory only: traces are
	// wall-clock diagnostics, deliberately kept out of the durable store
	// and the determinism guarantee.
	trace    *telemetry.Capture
	err      *apiError
	created  time.Time
	started  time.Time
	finished time.Time
	// clientCancel marks a cancellation requested through the API (as
	// opposed to daemon shutdown): only client cancellations journal a
	// terminal record — a shutdown-interrupted job must replay as
	// unfinished so the next boot restarts it.
	clientCancel bool

	cancel context.CancelFunc
	// runCtx is the execution context paired with cancel; retained so
	// recovery can relaunch a rebuilt job through start.
	runCtx context.Context
	done   chan struct{}
}

func newJob(id, typ string, request json.RawMessage, cancel context.CancelFunc) *job {
	j := &job{
		id:      id,
		typ:     typ,
		request: request,
		status:  jobQueued,
		created: time.Now().UTC(), //jellyvet:allow determinism -- job metadata timestamp; never enters a response digest or event payload
		cancel:  cancel,
		done:    make(chan struct{}),
	}
	j.eventsCh = sync.NewCond(&j.mu)
	return j
}

// JobView is the wire representation of a job.
type JobView struct {
	ID       string          `json:"id"`
	Type     string          `json:"type"`
	Status   string          `json:"status"`
	Created  string          `json:"created"`
	Started  string          `json:"started,omitempty"`
	Finished string          `json:"finished,omitempty"`
	Error    *apiError       `json:"error,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
}

// JobSpec is the submission body: the operation type plus the same
// request document the matching sync endpoint accepts.
type JobSpec struct {
	Type    string          `json:"type"`
	Request json.RawMessage `json:"request"`
}

// maxJobs bounds the job store of this resident daemon: past it, submit
// evicts finished jobs oldest-first (their results were retrievable the
// whole time; clients polling a just-finished job still have maxJobs/2
// submissions of slack before it ages out) and, if every retained job is
// still queued or running, rejects new submissions instead of growing
// without bound.
const maxJobs = 1024

// maxTombstones bounds the evicted-id set behind the 410 Gone answers;
// past it the oldest tombstones age out to plain 404s.
const maxTombstones = 4 * maxJobs

type jobStore struct {
	mu   sync.Mutex
	seq  int
	jobs map[string]*job
	// evicted remembers ids dropped by the retention cap, so clients can
	// distinguish "evicted" (410 Gone) from "never existed" (404).
	evicted map[string]bool
	// draining refuses new submissions during graceful shutdown.
	draining bool
	// cap is maxJobs, overridable in tests.
	cap int

	// Persistence (nil store = memory-only daemon). pmu serializes all
	// store I/O and the snapshot cadence. Lock order: pmu may take mu
	// (and per-job mu) while building a snapshot or publishing a
	// finished job, so appendRecord and finish must never be called with
	// mu held.
	pmu           sync.Mutex
	store         *persist.Store
	snapshotEvery int
	appended      int

	// degraded marks the read-only failure mode: a persist write failed,
	// so submissions are refused with 503 "degraded" while reads keep
	// serving from memory. The flag clears itself — every later persist
	// write doubles as the recovery probe (see persistence.go). Atomic so
	// healthz can read it without touching pmu.
	degraded atomic.Bool
	// tele records degraded-mode transitions.
	tele *tele
}

func newJobStore() *jobStore {
	return &jobStore{jobs: make(map[string]*job), evicted: make(map[string]bool), cap: maxJobs}
}

// submit validates the spec, plans it, journals it, and starts it
// asynchronously on the scheduler. Validation and journaling errors
// surface now (HTTP 400/500); execution errors surface on the job. The
// view is taken before the job starts, so it always shows it queued.
func (js *jobStore) submit(sched *scheduler, spec *JobSpec) (JobView, *apiError) {
	p, aerr := planJob(spec)
	if aerr != nil {
		return JobView{}, aerr
	}
	ctx, cancel := context.WithCancel(context.Background())
	js.mu.Lock()
	if js.draining {
		js.mu.Unlock()
		cancel()
		return JobView{}, &apiError{Status: http.StatusServiceUnavailable, Code: "shutting_down",
			Message: "server is draining; no new jobs admitted"}
	}
	evictedID := ""
	if len(js.jobs) >= js.cap {
		if evictedID = js.evictFinishedLocked(); evictedID == "" {
			n := len(js.jobs)
			js.mu.Unlock()
			cancel()
			return JobView{}, &apiError{Status: http.StatusTooManyRequests, Code: "job_store_full",
				Message: fmt.Sprintf("all %d retained jobs are still queued or running; retry after some finish or cancel", n)}
		}
	}
	js.seq++
	j := newJob(fmt.Sprintf("j%06d", js.seq), spec.Type, spec.Request, cancel)
	j.runCtx = ctx
	js.jobs[j.id] = j
	seq := js.seq
	js.mu.Unlock()

	if evictedID != "" {
		js.appendRecord(&jobRecord{Kind: recEvict, persistedJob: persistedJob{ID: evictedID}})
	}
	if aerr := js.appendRecord(&jobRecord{Kind: recSubmit, persistedJob: persistedJob{
		ID: j.id, Seq: seq, Type: j.typ, Request: j.request, Created: formatTime(j.created),
	}}); aerr != nil {
		// The submission never became durable: withdraw it rather than
		// acknowledge a job a restart would forget.
		js.mu.Lock()
		delete(js.jobs, j.id)
		js.mu.Unlock()
		cancel()
		return JobView{}, aerr
	}
	v := j.view(false)
	js.start(sched, j, p, ctx)
	return v, nil
}

// start launches a job's executor goroutine — shared by submit and
// crash recovery (recoverState re-runs unfinished jobs through exactly
// this path, which is why replayed results are byte-identical).
//
//jellyvet:allow determinism -- async job executor; the result itself is computed on the scheduler's deterministic path
func (js *jobStore) start(sched *scheduler, j *job, p *plan, ctx context.Context) {
	go func() {
		defer close(j.done)
		onEvent := func(b []byte) {
			j.mu.Lock()
			j.events = append(j.events, b)
			j.eventsCh.Broadcast()
			j.mu.Unlock()
		}
		// Jobs skip single-flight (each has its own cancellation scope)
		// but still hit the shared response tier.
		resp, trace, err := sched.do(ctx, p, false, func() {
			j.mu.Lock()
			if j.status == jobQueued {
				j.status = jobRunning
				j.started = time.Now().UTC() //jellyvet:allow determinism -- job metadata timestamp; never enters a response digest or event payload
			}
			j.mu.Unlock()
		}, onEvent)
		t := terminal{finished: time.Now().UTC(), trace: trace} //jellyvet:allow determinism -- job metadata timestamp; never enters a response digest or event payload
		durable := true
		switch {
		case err == nil:
			t.status = jobSucceeded
			t.result = resp
		case ctx.Err() != nil:
			t.status = jobCancelled
			t.err = &apiError{Status: http.StatusConflict, Code: "cancelled", Message: "job cancelled"}
			// Shutdown interruptions journal nothing: the submit record
			// without a terminal record is the checkpoint that makes the
			// next boot re-run this job.
			j.mu.Lock()
			durable = j.clientCancel
			j.mu.Unlock()
		default:
			t.status = jobFailed
			if ae, ok := err.(*apiError); ok {
				t.err = ae
			} else {
				t.err = &apiError{Status: http.StatusInternalServerError, Code: "internal", Message: err.Error()}
			}
		}
		js.finish(j, t, durable)
	}()
}

// planJob plans a job through its type's op table entry — the sync
// route's planner — so job results and sync results share canonical
// digests (and so response bytes).
func planJob(spec *JobSpec) (*plan, *apiError) {
	if len(spec.Request) == 0 {
		return nil, badRequest("invalid_job", "job request body missing")
	}
	for _, o := range ops {
		if o.name == spec.Type {
			return o.plan(spec.Request)
		}
	}
	return nil, badRequest("unknown_job_type", "unknown job type %q (want %s)", spec.Type, opNames())
}

// olderID orders job ids by age. Ids are zero-padded sequence numbers,
// so shorter — then lexicographically smaller — means older (the length
// tiebreak keeps the order right past the padding width).
func olderID(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}

// evictFinishedLocked drops the oldest finished job, returning its id
// ("" if every retained job is still queued or running). The dropped id
// joins the tombstone set so later lookups answer 410 Gone.
func (js *jobStore) evictFinishedLocked() string {
	oldest := ""
	//jellyvet:allow determinism -- min-by-id reduction; result independent of iteration order
	for id, j := range js.jobs {
		j.mu.Lock()
		finished := terminalStatus(j.status)
		j.mu.Unlock()
		if finished && (oldest == "" || olderID(id, oldest)) {
			oldest = id
		}
	}
	if oldest == "" {
		return ""
	}
	delete(js.jobs, oldest)
	js.evicted[oldest] = true
	if len(js.evicted) > maxTombstones {
		js.dropOldestTombstonesLocked()
	}
	return oldest
}

// dropOldestTombstonesLocked ages the oldest half of the tombstone set
// out to plain 404s, keeping the 410 memory bounded.
func (js *jobStore) dropOldestTombstonesLocked() {
	ids := make([]string, 0, len(js.evicted))
	//jellyvet:allow determinism -- collected then sorted by id before any use
	for id := range js.evicted {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return olderID(ids[a], ids[b]) })
	for _, id := range ids[:len(ids)/2] {
		delete(js.evicted, id)
	}
}

func (js *jobStore) get(id string) (*job, *apiError) {
	js.mu.Lock()
	defer js.mu.Unlock()
	j, ok := js.jobs[id]
	if !ok {
		if js.evicted[id] {
			return nil, &apiError{Status: http.StatusGone, Code: "job_evicted",
				Message: fmt.Sprintf("job %q was evicted by the retention cap (%d jobs); resubmit the request — results are deterministic", id, js.cap)}
		}
		return nil, &apiError{Status: http.StatusNotFound, Code: "unknown_job", Message: fmt.Sprintf("no job %q", id)}
	}
	return j, nil
}

// list returns views of all jobs, oldest first.
func (js *jobStore) list() []JobView {
	js.mu.Lock()
	jobs := make([]*job, 0, len(js.jobs))
	for _, j := range js.jobs { //jellyvet:allow determinism -- collected then sorted by id before any use
		jobs = append(jobs, j)
	}
	js.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return olderID(jobs[a].id, jobs[b].id) })
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.view(false)
	}
	return views
}

// view renders the job; withResult includes the (possibly large) result
// document — the list endpoint omits it.
func (j *job) view(withResult bool) JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:      j.id,
		Type:    j.typ,
		Status:  j.status,
		Created: j.created.Format(time.RFC3339Nano),
		Error:   j.err,
	}
	if !j.started.IsZero() {
		v.Started = j.started.Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.Finished = j.finished.Format(time.RFC3339Nano)
	}
	if withResult {
		v.Result = j.result
	}
	return v
}

// cancelJob requests cancellation on a client's behalf: queued jobs die
// at dequeue, running ones at their next ctx poll (between trials and
// steps, and inside the kernels once per solver phase or simulation
// round). A finished job is left untouched. Unlike shutdown
// interruption, a client cancellation is a terminal state and is
// journaled as one.
func (j *job) cancelJob() {
	j.mu.Lock()
	j.clientCancel = true
	j.mu.Unlock()
	j.cancel()
}
