package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// SSE determinism suite: the /events stream is part of the byte-exact
// contract. Same request ⇒ identical frame bytes across worker counts,
// cache states (cold, warm, cache-hit replay), and live tailing vs
// post-hoc replay.

// runJobAndStream submits a job, waits for it, and returns the full
// /events response body.
func runJobAndStream(t *testing.T, base, jobBody string) string {
	t.Helper()
	status, body := doPost(t, base+"/v1/jobs", jobBody)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if got := waitJob(t, base, v.ID); got.Status != jobSucceeded {
		t.Fatalf("job: %s (error %+v)", got.Status, got.Error)
	}
	st, stream := doGet(t, base+"/v1/jobs/"+v.ID+"/events")
	if st != http.StatusOK {
		t.Fatalf("events: status %d: %s", st, stream)
	}
	return string(stream)
}

var streamWorkloads = []struct {
	name string
	body string
}{
	{"capacity-search", `{"type":"capacity-search","request":{"switches":16,"ports":6,"trials":2,"seed":11}}`},
	{"evaluate", `{"type":"evaluate","request":{"topology":{"design":{"switches":20,"ports":8,"networkDegree":5,"seed":1}},"seed":7,"trials":2}}`},
	{"whatif", `{"type":"whatif","request":{"base":{"design":{"switches":20,"ports":8,"networkDegree":5,"seed":1}},"seed":9,"scenarios":[{"failLinks":{"fraction":0.1,"seed":2}},{"expand":{"switches":2,"ports":8,"networkDegree":5,"seed":3}}]}}`},
}

func TestEventStreamByteIdenticalAcrossWorkers(t *testing.T) {
	oneURL, _ := newTestServer(t, Options{Workers: 1})
	fourURL, _ := newTestServer(t, Options{Workers: 4})
	for _, wl := range streamWorkloads {
		one := runJobAndStream(t, oneURL.URL, wl.body)
		four := runJobAndStream(t, fourURL.URL, wl.body)
		if one != four {
			t.Errorf("%s: stream differs between -workers 1 and 4:\n w1 %q\n w4 %q", wl.name, one, four)
		}
		if !strings.Contains(one, "event: progress\n") {
			t.Errorf("%s: stream has no progress frames: %q", wl.name, one)
		}
		if !strings.HasSuffix(one, "event: done\ndata: {\"status\":\"succeeded\"}\n\n") {
			t.Errorf("%s: stream does not end with a done frame: %q", wl.name, one)
		}
	}
}

// TestEventStreamCacheHitReplay pins the subtlest determinism hazards:
// a cache-hit job (second identical submission) must replay the exact
// stream the miss produced, and a what-if chain resumed from a warm
// prefix must emit the same frames as one computed cold — the resumed
// steps are replayed into the stream, not silently skipped.
func TestEventStreamCacheHitReplay(t *testing.T) {
	warmTS, _ := newTestServer(t, Options{Workers: 2})
	coldTS, _ := newTestServer(t, Options{Workers: 2})

	for _, wl := range streamWorkloads {
		miss := runJobAndStream(t, warmTS.URL, wl.body)
		hit := runJobAndStream(t, warmTS.URL, wl.body)
		if miss != hit {
			t.Errorf("%s: cache-hit stream differs from miss:\n miss %q\n hit  %q", wl.name, miss, hit)
		}
	}

	// Warm the chain cache with the one-scenario prefix, then run the
	// two-scenario chain on both servers: the warm run resumes from the
	// cached prefix, the cold run computes everything.
	prefix := `{"base":{"design":{"switches":20,"ports":8,"networkDegree":5,"seed":1}},"seed":9,"scenarios":[{"failLinks":{"fraction":0.1,"seed":2}}]}`
	full := streamWorkloads[2].body
	mustPost(t, warmTS.URL+"/v1/whatif", prefix)
	warm := runJobAndStream(t, warmTS.URL, full)
	cold := runJobAndStream(t, coldTS.URL, full)
	if warm != cold {
		t.Errorf("whatif: warm-prefix stream differs from cold:\n warm %q\n cold %q", warm, cold)
	}
}

// TestSSEDisconnectMidStreamFreesSubscriber is the subscriber-leak
// regression: a client that vanishes mid-stream (while the job is still
// running and the handler is blocked waiting for more events) must wake
// the handler, return the subscriber gauge to zero, and leave nothing
// behind — the store must not accumulate dead sinks across a
// disconnect storm.
func TestSSEDisconnectMidStreamFreesSubscriber(t *testing.T) {
	srv := mustNew(t, Options{Workers: 1})
	// Every events handler reports its return, after its deferred gauge
	// decrement has run; the buffer holds a storm's worth, so no handler
	// waits on the test.
	const storm = 8
	returned := make(chan struct{}, storm)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.Handler().ServeHTTP(w, r)
		if strings.HasSuffix(r.URL.Path, "/events") {
			returned <- struct{}{}
		}
	}))
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	release := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	j := newJob("j990001", "design", nil, cancel)
	j.runCtx = ctx
	srv.jobs.mu.Lock()
	srv.jobs.jobs[j.id] = j
	srv.jobs.mu.Unlock()
	p := &plan{family: "leak", key: "leak", op: "design",
		run: func(ctx context.Context, w *worker) (any, error) {
			emit(ctx, struct {
				N int `json:"n"`
			}{1})
			<-release
			return "done", nil
		}}
	srv.jobs.start(srv.sched, j, p, ctx)

	var wg sync.WaitGroup
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func() { //jellyvet:allow determinism -- test harness goroutine; errors travel through the WaitGroup'd closure
			defer wg.Done()
			reqCtx, disconnect := context.WithCancel(context.Background())
			defer disconnect()
			req, _ := http.NewRequestWithContext(reqCtx, "GET", ts.URL+"/v1/jobs/"+j.id+"/events", nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Errorf("subscribing: %v", err)
				return
			}
			defer resp.Body.Close()
			// Read the first progress frame so the handler is mid-stream,
			// then vanish.
			buf := make([]byte, 1)
			resp.Body.Read(buf)
			disconnect()
			io.ReadAll(resp.Body)
		}()
	}
	wg.Wait()

	// Each handler must observe its client's disconnect and return while
	// the job is still running; once all have, the gauge must be back at 0.
	for i := 0; i < storm; i++ {
		select {
		case <-returned:
		case <-time.After(time.Minute):
			t.Fatalf("%d of %d event handlers still blocked a minute after their clients disconnected (gauge %d)",
				storm-i, storm, srv.tele.sseSubs.Value())
		}
	}
	if n := srv.tele.sseSubs.Value(); n != 0 {
		t.Fatalf("subscriber gauge at %d after every handler returned, want 0", n)
	}
	close(release)
	if got := waitJob(t, ts.URL, j.id); got.Status != jobSucceeded {
		t.Fatalf("job after disconnect storm: %s", got.Status)
	}
}

func TestEventStreamLiveTailMatchesReplay(t *testing.T) {
	ts, _ := newTestServer(t, Options{Workers: 1})
	jobBody := streamWorkloads[0].body
	status, body := doPost(t, ts.URL+"/v1/jobs", jobBody)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}

	// Tail live, immediately — racing the job on purpose; the handler
	// blocks until the done frame no matter when we connect.
	live := make(chan string, 1)
	go func() { //jellyvet:allow determinism -- test harness goroutine; t.Fatal is not legal here, so errors travel the channel
		resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
		if err != nil {
			live <- fmt.Sprintf("ERROR %v", err)
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			live <- fmt.Sprintf("ERROR reading stream: %v", err)
			return
		}
		live <- string(b)
	}()

	if got := waitJob(t, ts.URL, v.ID); got.Status != jobSucceeded {
		t.Fatalf("job: %s", got.Status)
	}
	_, replayed := doGet(t, ts.URL+"/v1/jobs/"+v.ID+"/events")
	if tail := <-live; tail != string(replayed) {
		t.Fatalf("live tail differs from post-hoc replay:\n live   %q\n replay %q", tail, replayed)
	}
}
