package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"jellyfish/internal/faultinject"
)

// Chaos suite: seeded fault schedules driven through the public API
// (DESIGN.md §16). Each test activates one schedule, walks the failure
// through injection, containment, and recovery, and finishes by proving
// the service's core invariant survived: responses byte-identical to a
// never-faulted server. The faultinject registry is process-global, so
// none of these tests may call t.Parallel().

// chaosSchedule activates a fault schedule for the test and guarantees
// deactivation at cleanup (failing the test on a grammar error, which
// would otherwise silently test nothing).
func chaosSchedule(t *testing.T, schedule string) func() {
	t.Helper()
	deactivate, err := faultinject.Activate(schedule)
	if err != nil {
		t.Fatalf("activating %q: %v", schedule, err)
	}
	t.Cleanup(deactivate)
	return deactivate
}

// hardStop kills a durable server the way SIGKILL would: detach the
// store first so none of the orderly shutdown paths (final snapshot,
// terminal records) can run, then tear everything down. Whatever bytes
// already reached the kernel are exactly what the next boot replays.
func hardStop(ts *httptest.Server, srv *Server) {
	srv.jobs.pmu.Lock()
	store := srv.jobs.store
	srv.jobs.store = nil
	srv.jobs.pmu.Unlock()
	ts.Close()
	srv.Close()
	if store != nil {
		store.Close()
	}
}

const chaosJobBody = `{"type":"capacity-search","request":{"switches":16,"ports":6,"trials":1,"seed":11}}`
const chaosSyncPath = "/v1/capacity-search"
const chaosSyncBody = `{"switches":16,"ports":6,"trials":1,"seed":11}`

func submitJob(t *testing.T, base, body string) JobView {
	t.Helper()
	status, b := doPost(t, base+"/v1/jobs", body)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, b)
	}
	var v JobView
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// A journal-append failure must flip the store into degraded read-only
// mode (503 on submits, reads fine), a later successful append must
// recover it, and the recovery snapshot must re-persist every terminal
// job whose own done record was lost while degraded — so a hard stop
// after recovery loses nothing.
func TestChaosAppendFaultDegradedThenRecovers(t *testing.T) {
	dir := t.TempDir()
	// Hits: 1 = job A's submit record (ok), 2 = A's done record (FIRE →
	// degraded with A terminal only in memory), 3 = job B's submit
	// (FIRE → 503), 4 = job C's submit (ok → recovery + snapshot).
	deactivate := chaosSchedule(t, "persist.append:2-2:enospc")
	ts, srv := durableServer(t, dir, Options{Workers: 1})

	a := submitJob(t, ts.URL, chaosJobBody)
	if got := waitJob(t, ts.URL, a.ID); got.Status != jobSucceeded {
		t.Fatalf("job A: %s", got.Status)
	}
	_, resultA := doGet(t, ts.URL+"/v1/jobs/"+a.ID+"/result")
	// finish enters degraded mode under pmu before it publishes the
	// terminal status waitJob saw, so the gauge is already set.
	if got := srv.tele.degradedState.Value(); got != 1 {
		t.Fatalf("degraded gauge = %d, want 1", got)
	}

	// Degraded: submits refuse with 503/degraded and are withdrawn...
	status, body := doPost(t, ts.URL+"/v1/jobs", chaosJobBody)
	if status != http.StatusServiceUnavailable || !strings.Contains(string(body), `"degraded"`) {
		t.Fatalf("submit while degraded: status %d: %s", status, body)
	}
	// ...reads keep working, and liveness reports degraded but alive.
	if status, _ := doGet(t, ts.URL+"/v1/jobs/"+a.ID); status != http.StatusOK {
		t.Fatalf("read while degraded: status %d", status)
	}
	if status, body := doGet(t, ts.URL+"/healthz"); status != http.StatusOK || string(body) != `{"status":"degraded"}` {
		t.Fatalf("healthz while degraded: status %d body %s", status, body)
	}
	if got := srv.tele.degradedFlips.Value(); got != 1 {
		t.Fatalf("degraded transitions = %d, want 1", got)
	}

	// The next submit's append is itself the recovery probe: it succeeds,
	// clears the flag, and snapshots job A back into durability, all
	// before the submit responds.
	c := submitJob(t, ts.URL, chaosJobBody)
	if got := srv.tele.degradedState.Value(); got != 0 {
		t.Fatalf("degraded gauge = %d, want 0", got)
	}
	if status, body := doGet(t, ts.URL+"/healthz"); status != http.StatusOK || string(body) != `{"status":"ok"}` {
		t.Fatalf("healthz after recovery: status %d body %s", status, body)
	}
	if got := waitJob(t, ts.URL, c.ID); got.Status != jobSucceeded {
		t.Fatalf("job C: %s", got.Status)
	}

	// SIGKILL after recovery: job A's durability must have been restored
	// by the recovery snapshot, not by any orderly-shutdown path.
	hardStop(ts, srv)
	deactivate()
	ts2, srv2 := durableServer(t, dir, Options{Workers: 1})
	defer func() { ts2.Close(); srv2.Close() }()
	status, body = doGet(t, ts2.URL+"/v1/jobs/"+a.ID)
	if status != http.StatusOK {
		t.Fatalf("job A after restart: status %d: %s", status, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.Status != jobSucceeded {
		t.Fatalf("job A after restart: %s (terminal state lost across degraded era)", v.Status)
	}
	if _, result2 := doGet(t, ts2.URL+"/v1/jobs/"+a.ID+"/result"); string(result2) != string(resultA) {
		t.Fatalf("job A result changed across degraded era:\n before %s\n after  %s", resultA, result2)
	}
}

// A failure in the crash-during-snapshot window (after the temp write,
// before the rename) must leave the previous (snapshot, journal) pair
// as the recoverable state: the journal is only reset after a rename
// lands, so nothing is lost.
func TestChaosSnapshotRenameFailureKeepsJournal(t *testing.T) {
	dir := t.TempDir()
	deactivate := chaosSchedule(t, "persist.snapshot.rename:1:eio")
	ts, srv := durableServer(t, dir, Options{Workers: 1})

	a := submitJob(t, ts.URL, chaosJobBody)
	if got := waitJob(t, ts.URL, a.ID); got.Status != jobSucceeded {
		t.Fatalf("job: %s", got.Status)
	}
	_, result1 := doGet(t, ts.URL+"/v1/jobs/"+a.ID+"/result")

	// Orderly close attempts a final snapshot; every rename fails under
	// the schedule, so the journal must carry the state across.
	ts.Close()
	srv.Close()
	deactivate()

	ts2, srv2 := durableServer(t, dir, Options{Workers: 1})
	defer func() { ts2.Close(); srv2.Close() }()
	got := waitJob(t, ts2.URL, a.ID)
	if got.Status != jobSucceeded {
		t.Fatalf("job after restart: %s", got.Status)
	}
	_, result2 := doGet(t, ts2.URL+"/v1/jobs/"+a.ID+"/result")
	if string(result1) != string(result2) {
		t.Fatalf("result changed across failed snapshot:\n before %s\n after  %s", result1, result2)
	}
}

// A kernel panic mid-probe must fail exactly the one job that hit it
// (500/internal_error), discard the worker's possibly-poisoned warm
// state, and leave the worker alive — the next identical job must
// succeed with bytes identical to a cold, never-faulted server.
func TestChaosPanicMidProbeContainedToOneJob(t *testing.T) {
	coldTS, _ := newTestServer(t, Options{Workers: 1})
	coldBytes := mustPost(t, coldTS.URL+chaosSyncPath, chaosSyncBody)

	deactivate := chaosSchedule(t, "capsearch.trial:1-1:panic")
	ts, srv := newTestServer(t, Options{Workers: 1})

	a := submitJob(t, ts.URL, chaosJobBody)
	got := waitJob(t, ts.URL, a.ID)
	if got.Status != jobFailed {
		t.Fatalf("panicked job: %s, want failed", got.Status)
	}
	if got.Error == nil || got.Error.Code != "internal_error" ||
		!strings.Contains(got.Error.Message, "faultinject: injected panic") {
		t.Fatalf("panicked job error: %+v", got.Error)
	}
	if n := srv.tele.panics.Value(); n != 1 {
		t.Fatalf("panics contained = %d, want 1", n)
	}

	// Same worker, same family, next job: the discarded warm state means
	// this runs cold — and must therefore match the cold baseline.
	deactivate()
	b := submitJob(t, ts.URL, chaosJobBody)
	got = waitJob(t, ts.URL, b.ID)
	if got.Status != jobSucceeded {
		t.Fatalf("job after contained panic: %s (%+v)", got.Status, got.Error)
	}
	_, result := doGet(t, ts.URL+"/v1/jobs/"+b.ID+"/result")
	if string(result) != string(coldBytes) {
		t.Fatalf("post-panic result diverged from cold server:\n cold %s\n got  %s", coldBytes, result)
	}
	if n := srv.tele.panics.Value(); n != 1 {
		t.Fatalf("panics contained = %d after recovery job, want still 1", n)
	}
}

// Cancelling a job behind a wedged worker must reach a terminal
// cancelled state promptly and leave no truncated partial results in any
// cache: the same request afterwards returns bytes identical to a fresh
// server.
func TestChaosCancelMidSearchLeavesCachesClean(t *testing.T) {
	freshTS, _ := newTestServer(t, Options{Workers: 1})
	freshBytes := mustPost(t, freshTS.URL+chaosSyncPath, chaosSyncBody)

	// Stall the first dequeue so the worker is wedged when the cancel
	// lands. Whether the cancel arrives before the worker dequeues or
	// during the stall, the scheduler's dequeue check after the stall
	// observes it before any kernel runs: this checks cancel-at-dequeue.
	// TestChaosCancelAtEveryPollLeavesCachesClean covers cancels that
	// land mid-kernel.
	oldStall := faultinject.StallDuration
	faultinject.StallDuration = 300 * time.Millisecond
	t.Cleanup(func() { faultinject.StallDuration = oldStall })
	deactivate := chaosSchedule(t, "sched.worker.stall:1:stall")
	ts, _ := newTestServer(t, Options{Workers: 1})

	a := submitJob(t, ts.URL, chaosJobBody)
	cancelStart := time.Now()
	if status, body := doPost(t, ts.URL+"/v1/jobs/"+a.ID+"/cancel", ""); status != http.StatusOK {
		t.Fatalf("cancel: status %d: %s", status, body)
	}
	got := waitJob(t, ts.URL, a.ID)
	if got.Status != jobCancelled {
		t.Fatalf("cancelled job: %s", got.Status)
	}
	// Terminal well before the job's own runtime, even with the injected
	// stall still draining.
	if elapsed := time.Since(cancelStart); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}

	// Nothing truncated may have been cached on the worker.
	deactivate()
	if after := mustPost(t, ts.URL+chaosSyncPath, chaosSyncBody); string(after) != string(freshBytes) {
		t.Fatalf("post-cancel response diverged from fresh server:\n fresh %s\n got   %s", freshBytes, after)
	}
}

// pollCtx is a context whose Err counts its calls and reports
// context.Canceled from call fireAt onward (never, when fireAt is 0).
// Every cancellation check on the execution path — the scheduler's
// dequeue check, the executors' re-checks and the kernels' per-phase
// and per-round polls — goes through Err, so the count indexes every
// point where a cancel can land.
type pollCtx struct {
	context.Context
	fireAt int64
	polls  atomic.Int64
}

func (c *pollCtx) Err() error {
	if n := c.polls.Add(1); c.fireAt > 0 && n >= c.fireAt {
		return context.Canceled
	}
	return nil
}

// A cancel that lands at any poll — at dequeue, between trials or steps,
// or mid-kernel inside a GK phase loop or a flow-simulation round — must
// fail the request with context.Canceled and leave no truncated state in
// the family:, chain: or sim: tiers: the same request on the same server
// afterwards returns the bytes of a fresh server.
func TestChaosCancelAtEveryPollLeavesCachesClean(t *testing.T) {
	cases := []struct{ op, body string }{
		{"capacity-search", chaosSyncBody},
		{"evaluate", `{"topology":{"design":{"switches":20,"ports":8,"networkDegree":5,"seed":1}},"seed":7,"trials":2}`},
		{"evaluate", `{"topology":{"design":{"switches":20,"ports":8,"networkDegree":5,"seed":4}},"seed":9,"trials":2,"estimator":{"kind":"sampled-mcf","sample":8}}`},
		{"evaluate", `{"topology":{"design":{"switches":20,"ports":8,"networkDegree":5,"seed":4}},"seed":9,"trials":2,"transport":{"protocol":"mptcp8","routing":"ksp8"}}`},
		{"whatif", `{"base":{"design":{"switches":20,"ports":8,"networkDegree":5,"seed":4}},"seed":3,"transport":{"protocol":"mptcp8"},"scenarios":[{"failLinks":{"fraction":0.05,"seed":1}}]}`},
	}
	for _, tc := range cases {
		run := func(srv *Server, ctx context.Context) ([]byte, error) {
			t.Helper()
			for _, o := range ops {
				if o.name == tc.op {
					p, aerr := o.plan([]byte(tc.body))
					if aerr != nil {
						t.Fatalf("%s: plan: %v", tc.op, aerr)
					}
					resp, _, err := srv.sched.do(ctx, p, false, nil, nil)
					return resp, err
				}
			}
			t.Fatalf("no op %q", tc.op)
			return nil, nil
		}
		fresh := mustNew(t, Options{Workers: 1})
		count := &pollCtx{Context: context.Background()}
		want, err := run(fresh, count)
		fresh.Close()
		if err != nil {
			t.Fatalf("%s %s: never-firing run: %v", tc.op, tc.body, err)
		}
		polls := count.polls.Load()
		t.Logf("%s %s: %d polls", tc.op, tc.body, polls)
		for _, n := range []int64{1, 2, 3, polls / 2, polls} {
			srv := mustNew(t, Options{Workers: 1})
			if _, err := run(srv, &pollCtx{Context: context.Background(), fireAt: n}); !errors.Is(err, context.Canceled) {
				t.Errorf("%s %s: cancel at poll %d of %d returned %v, want context.Canceled", tc.op, tc.body, n, polls, err)
			}
			after, err := run(srv, context.Background())
			srv.Close()
			if err != nil || !bytes.Equal(after, want) {
				t.Errorf("%s %s: after a cancel at poll %d of %d (err %v):\n fresh %s\n got   %s", tc.op, tc.body, n, polls, err, want, after)
			}
		}
	}
}

// A torn append (short write, as a crash mid-write would leave it) must
// be dropped on replay as a truncated tail: the job whose done record
// tore re-runs from its durable submit record and converges on the same
// bytes.
func TestChaosShortWriteTornFrameReplay(t *testing.T) {
	dir := t.TempDir()
	// Hit 1 = submit record (ok), hit 2 = done record (torn).
	deactivate := chaosSchedule(t, "persist.append:2-1:shortwrite")
	ts, srv := durableServer(t, dir, Options{Workers: 1})

	a := submitJob(t, ts.URL, chaosJobBody)
	if got := waitJob(t, ts.URL, a.ID); got.Status != jobSucceeded {
		t.Fatalf("job: %s", got.Status)
	}
	_, result1 := doGet(t, ts.URL+"/v1/jobs/"+a.ID+"/result")
	// Set before the terminal status was published, as above.
	if got := srv.tele.degradedState.Value(); got != 1 {
		t.Fatalf("degraded gauge = %d, want 1", got)
	}

	hardStop(ts, srv)
	deactivate()

	// Replay: the torn done record is dropped, so the job is interrupted
	// state — it must re-run automatically and reproduce the result.
	ts2, srv2 := durableServer(t, dir, Options{Workers: 1})
	defer func() { ts2.Close(); srv2.Close() }()
	got := waitJob(t, ts2.URL, a.ID)
	if got.Status != jobSucceeded {
		t.Fatalf("job after torn-frame replay: %s (%+v)", got.Status, got.Error)
	}
	_, result2 := doGet(t, ts2.URL+"/v1/jobs/"+a.ID+"/result")
	if string(result1) != string(result2) {
		t.Fatalf("re-run after torn frame diverged:\n before %s\n after  %s", result1, result2)
	}
}

// Activating a schedule whose rules never fire must change nothing:
// responses stay byte-identical to a never-activated server across
// worker counts. This is the faults-off byte-identity floor under the
// strictest reading — even the activated-but-idle registry is invisible.
func TestChaosIdleScheduleIsByteInvisible(t *testing.T) {
	baseTS, _ := newTestServer(t, Options{Workers: 1})
	evalBody := `{"topology":{"design":{"switches":16,"ports":8,"networkDegree":5,"seed":29}},"seed":31,"trials":1}`
	baseEval := mustPost(t, baseTS.URL+"/v1/evaluate", evalBody)
	baseCap := mustPost(t, baseTS.URL+chaosSyncPath, chaosSyncBody)

	before := faultinject.FireCount()
	chaosSchedule(t, "sse.write:999999:err,persist.append:999999:enospc")
	ts, _ := newTestServer(t, Options{Workers: 4})
	if got := mustPost(t, ts.URL+"/v1/evaluate", evalBody); string(got) != string(baseEval) {
		t.Fatalf("evaluate diverged under idle schedule:\n base %s\n got  %s", baseEval, got)
	}
	if got := mustPost(t, ts.URL+chaosSyncPath, chaosSyncBody); string(got) != string(baseCap) {
		t.Fatalf("capacity-search diverged under idle schedule:\n base %s\n got  %s", baseCap, got)
	}
	if after := faultinject.FireCount(); after != before {
		t.Fatalf("idle schedule fired %d times", after-before)
	}
}
