package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"jellyfish/internal/telemetry"
)

func respEntry(s string) *cachedResult { return &cachedResult{resp: []byte(s)} }

// The response tier is an LRU: a get refreshes an entry, a put past the
// capacity evicts the least recently used one, and re-putting a key
// replaces its value in place.
func TestRespCacheLRUOrderAndEviction(t *testing.T) {
	c := newRespCache(2)
	c.put("a", respEntry("A"))
	c.put("b", respEntry("B"))
	if _, ok := c.get("a"); !ok { // a is now the most recent
		t.Fatal("a missing before any eviction")
	}
	c.put("c", respEntry("C")) // evicts b, the least recent
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction; the LRU order ignored the get of a")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("%s evicted, want b evicted", k)
		}
	}
	c.put("a", respEntry("A2")) // replace in place: no eviction
	if v, ok := c.get("a"); !ok || string(v.resp) != "A2" {
		t.Fatalf("a after replace = %v %v, want A2", v, ok)
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("replacing a evicted c")
	}
	if n := c.size.Load(); n != 2 {
		t.Fatalf("size = %d, want 2", n)
	}

	empty := newRespCache(0) // a zero budget caches nothing
	empty.put("a", respEntry("A"))
	if _, ok := empty.get("a"); ok || empty.size.Load() != 0 {
		t.Fatal("a zero-capacity tier kept an entry")
	}
}

// Concurrent gets and puts from a fixed set of goroutines never push the
// tier past its capacity, and the list and index stay in step. Run under
// -race this is also the tier's data-race check.
func TestRespCacheConcurrentBounded(t *testing.T) {
	const capacity, goroutines, ops = 16, 8, 2000
	c := newRespCache(capacity)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%(3*capacity))
				if v, ok := c.get(key); ok && string(v.resp) != key {
					errs <- fmt.Errorf("get %s returned %s", key, v.resp)
					return
				}
				c.put(key, respEntry(key))
				if n := c.size.Load(); n > capacity {
					errs <- fmt.Errorf("size %d past capacity %d", n, capacity)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries.len() != capacity || len(c.entries.items) != capacity || c.size.Load() != capacity {
		t.Fatalf("list %d, index %d, size %d; want all %d", c.entries.len(), len(c.entries.items), c.size.Load(), capacity)
	}
}

// The shared response tier and the per-worker warm LRUs together never
// hold more than workers × CacheEntries entries — the budget a
// per-worker-only cache had.
func TestCacheBudgetSplit(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, entries := range []int{1, 2, 3, 4, 5, 17, 128, 1000} {
			s := newScheduler(workers, 1, entries, &tele{})
			total := s.resp.entries.cap
			for _, w := range s.workers {
				if w.cache.cap < 0 {
					t.Errorf("workers %d cache %d: negative warm capacity %d", workers, entries, w.cache.cap)
				}
				total += w.cache.cap
			}
			s.close()
			if total > workers*entries {
				t.Errorf("workers %d cache %d: tiers hold %d entries, budget is %d", workers, entries, total, workers*entries)
			}
			if entries >= 6 && (s.resp.entries.cap == 0 || s.workers[0].cache.cap == 0) {
				t.Errorf("workers %d cache %d: shared %d, warm %d per worker; want both tiers non-empty",
					workers, entries, s.resp.entries.cap, s.workers[0].cache.cap)
			}
		}
	}
}

// finishedJob copies a finished job's result, event stream and trace
// out from under its lock.
func finishedJob(t *testing.T, srv *Server, id string) *job {
	t.Helper()
	j, aerr := srv.jobs.get(id)
	if aerr != nil {
		t.Fatal(aerr)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return &job{result: j.result, events: j.events, trace: j.trace}
}

// hitBypassBody is a capacity search: it emits probe events, so a hit
// has a stream to replay.
const hitBypassBody = `{"switches":16,"ports":6,"trials":1,"seed":11}`

// A response-tier hit is served without queueing: with the family's
// shard worker blocked, the same request — sync and as a job — returns
// the cold execution's bytes, event stream and trace while the worker
// is still blocked.
func TestResponseHitBypassesBusyShard(t *testing.T) {
	ts, srv := newTestServer(t, Options{Workers: 1})
	cold := finishedJob(t, srv, runJobWait(t, ts.URL, `{"type":"capacity-search","request":`+hitBypassBody+`}`))
	if len(cold.events) == 0 || cold.trace == nil {
		t.Fatalf("cold job recorded %d events, trace %v; the test needs both", len(cold.events), cold.trace)
	}

	// Park the (only) shard worker on a task of the same family.
	p, aerr := planJob(&JobSpec{Type: "capacity-search", Request: []byte(hitBypassBody)})
	if aerr != nil {
		t.Fatal(aerr)
	}
	started, release, blockerDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	blocker := &plan{family: p.family, key: "blocker", op: "design", run: func(ctx context.Context, w *worker) (any, error) {
		close(started)
		<-release
		return "released", nil
	}}
	go func() {
		defer close(blockerDone)
		srv.sched.do(context.Background(), blocker, false, nil, nil)
	}()
	defer func() {
		close(release)
		<-blockerDone
	}()
	<-started

	hitsBefore, missesBefore := tierHits(srv, tierResp), tierMisses(srv, tierResp)
	type reply struct {
		status int
		body   []byte
		err    error
	}
	syncReply := make(chan reply, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/capacity-search", "application/json", strings.NewReader(hitBypassBody))
		if err != nil {
			syncReply <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		syncReply <- reply{resp.StatusCode, b, err}
	}()
	select {
	case r := <-syncReply:
		if r.err != nil || r.status != http.StatusOK || !bytes.Equal(r.body, cold.result) {
			t.Fatalf("sync hit: status %d err %v body %s, want 200 with the cold bytes %s", r.status, r.err, r.body, cold.result)
		}
	case <-time.After(time.Minute):
		t.Fatal("sync hit still waiting after a minute: it queued behind the blocked worker")
	}

	hit := finishedJob(t, srv, runJobWait(t, ts.URL, `{"type":"capacity-search","request":`+hitBypassBody+`}`))
	if !bytes.Equal(hit.result, cold.result) {
		t.Fatalf("job hit result %s, want the cold bytes %s", hit.result, cold.result)
	}
	if len(hit.events) != len(cold.events) {
		t.Fatalf("job hit replayed %d events, want %d", len(hit.events), len(cold.events))
	}
	for i := range cold.events {
		if !bytes.Equal(hit.events[i], cold.events[i]) {
			t.Fatalf("job hit event %d = %s, want %s", i, hit.events[i], cold.events[i])
		}
	}
	if hit.trace != cold.trace {
		t.Fatal("job hit does not share the cold execution's trace")
	}

	select {
	case <-blockerDone:
		t.Fatal("the blocker finished before release; the worker was never blocked")
	default:
	}
	if h, m := tierHits(srv, tierResp)-hitsBefore, tierMisses(srv, tierResp)-missesBefore; h != 2 || m != 0 {
		t.Fatalf("two hits counted %d hits and %d misses, want 2 and 0", h, m)
	}
}

// The hit path keeps the scheduler's edge semantics: a hit after close
// reports errSchedulerClosed (so drain still answers 503 shutting_down),
// a hit under a cancelled context reports the context's error, and each
// request counts exactly one response-tier hit or miss.
func TestResponseHitEdgeSemantics(t *testing.T) {
	srv := mustNew(t, Options{Workers: 2})
	defer srv.Close()
	p, aerr := planJob(&JobSpec{Type: "capacity-search", Request: []byte(hitBypassBody)})
	if aerr != nil {
		t.Fatal(aerr)
	}
	cold, _, err := srv.sched.do(context.Background(), p, true, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		var events [][]byte
		b, _, err := srv.sched.do(context.Background(), p, i%2 == 0, nil, func(e []byte) { events = append(events, e) })
		if err != nil || !bytes.Equal(b, cold) || len(events) == 0 {
			t.Fatalf("hit %d: err %v, %d events, bytes equal %v", i, err, len(events), bytes.Equal(b, cold))
		}
	}
	if h, m := tierHits(srv, tierResp), tierMisses(srv, tierResp); h != 3 || m != 1 {
		t.Fatalf("1 cold run + 3 hits counted %d hits and %d misses, want 3 and 1", h, m)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := srv.sched.do(ctx, p, false, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("hit under a cancelled context returned %v, want context.Canceled", err)
	}
	srv.sched.close()
	if _, _, err := srv.sched.do(context.Background(), p, true, nil, nil); !errors.Is(err, errSchedulerClosed) {
		t.Fatalf("hit after close returned %v, want errSchedulerClosed", err)
	}
	if h, m := tierHits(srv, tierResp), tierMisses(srv, tierResp); h != 3 || m != 1 {
		t.Fatalf("refused requests counted: %d hits and %d misses, want still 3 and 1", h, m)
	}
}

// An identical job queued behind the execution that fills the response
// tier (jobs skip single-flight, so both miss in do) re-checks the tier
// at dequeue and runs only once.
func TestQueuedDuplicateRunsOnce(t *testing.T) {
	srv := mustNew(t, Options{Workers: 1})
	defer srv.Close()
	p, aerr := planJob(&JobSpec{Type: "capacity-search", Request: []byte(hitBypassBody)})
	if aerr != nil {
		t.Fatal(aerr)
	}
	started, release := make(chan struct{}), make(chan struct{})
	blocker := &plan{family: p.family, key: "blocker", op: "design", run: func(ctx context.Context, w *worker) (any, error) {
		close(started)
		<-release
		return "released", nil
	}}
	go srv.sched.do(context.Background(), blocker, false, nil, nil)
	<-started
	// Queue both copies directly, as do does after its miss: the sends
	// return once the tasks sit behind the blocker.
	dups := make([]*task, 2)
	for i := range dups {
		dups[i] = &task{plan: p, ctx: context.Background(), enq: telemetry.StartTimer(), done: make(chan struct{})}
		srv.sched.workers[0].queue <- dups[i]
	}
	close(release)
	for _, d := range dups {
		<-d.done
	}
	if dups[0].err != nil || dups[1].err != nil || !bytes.Equal(dups[0].resp, dups[1].resp) {
		t.Fatalf("duplicates: errs %v / %v, bytes equal %v", dups[0].err, dups[1].err, bytes.Equal(dups[0].resp, dups[1].resp))
	}
	// The blocker and the first copy executed; the second copy hit.
	if h, m := tierHits(srv, tierResp), tierMisses(srv, tierResp); h != 1 || m != 2 {
		t.Fatalf("blocker + two queued copies counted %d hits and %d misses, want 1 and 2", h, m)
	}
}
