package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"jellyfish/internal/faultinject"
	"jellyfish/internal/telemetry"
)

// The scheduler is the serving core: a fixed pool of solver workers, each
// owning a warm-state cache, with requests hashed by topology-family key
// to a shard. One goroutine per worker executes that shard's requests
// sequentially, which is what makes holding mutable warm assets
// (capsearch.Family memoization, reusable solver chains) safe without any
// locking: confinement, not synchronization, is the ownership story.
//
// Determinism argument (tested end to end in determinism_test.go): every
// cache entry — response bytes, chain checkpoints, topology families — is
// a pure function of its key, and keys are canonical content digests of
// the request (or of a chain prefix of it). A cache hit therefore returns
// exactly the bytes/state a cold execution would have computed, and the
// shard a family lands on — which changes with the worker count — can
// affect only wall-clock, never results.

// errSchedulerClosed reports a submit after Close (shutdown path).
var errSchedulerClosed = errors.New("service: scheduler closed")

// A plan is a normalized, validated request ready to execute: where it
// shards (family), its canonical identity (key, the single-flight and
// response-cache handle), and the executor to run on the owning worker.
type plan struct {
	family string
	key    string
	// op is the op table name (ops) that planned this: the per-op
	// duration series label and the root span of the recorded trace.
	op  string
	run func(ctx context.Context, w *worker) (any, error)
}

// A task is one scheduled execution of a plan.
type task struct {
	*plan
	ctx     context.Context
	dedup   bool
	onStart func()
	// onEvent, when non-nil, receives each progress payload the executor
	// emits (and, on a response-cache hit, the cached stream replayed in
	// order) — the live feed behind GET /v1/jobs/{id}/events.
	onEvent func([]byte)

	// enq marks submission time for the queue-wait histogram.
	enq telemetry.Timer

	done   chan struct{}
	resp   []byte
	events [][]byte
	trace  *telemetry.Trace
	err    error
}

// A cachedResult is one "resp:" cache entry: the response bytes plus
// the progress-event payloads the execution emitted. They live in one
// entry so a cache hit replays exactly the event stream a cold
// execution produces — evicting one without the other could otherwise
// split the determinism guarantee between response and stream.
type cachedResult struct {
	resp   []byte
	events [][]byte
	// trace is the span tree the original execution recorded, shared by
	// every hit so a cached job's /v1/trace answer matches the cold
	// run's. Traces are diagnostics, NOT covered by the determinism
	// guarantee (their durations are wall-clock), which is why they live
	// beside the guaranteed bytes rather than inside them.
	trace *telemetry.Trace
}

// worker is one cache shard: a queue, the warm-state cache it owns, and
// the goroutine (spawned in newScheduler) that is the sole executor of
// everything behind it.
//
//jellyvet:confined
type worker struct {
	queue         chan *task
	cache         *lru
	solverWorkers int
	// tele is this shard's telemetry (never nil; inert when disabled).
	// Its flight recorder is confined to this worker's goroutine.
	tele *workerTele
	// cacheLen mirrors cache.len() for the cache-entries gauge (the
	// cache itself is confined to this worker's goroutine).
	cacheLen atomic.Int64
}

// lookup reads key from the worker's cache, counting a hit or a miss
// on the given tier.
func (w *worker) lookup(tier int, key string) (any, bool) {
	v, ok := w.cache.get(key)
	if ok {
		w.tele.hits[tier].Inc()
	} else {
		w.tele.misses[tier].Inc()
	}
	return v, ok
}

type scheduler struct {
	workers []*worker
	tele    *tele

	mu       sync.Mutex
	inflight map[string]*task
	closed   bool
	// submitters tracks in-progress queue sends so close can wait for
	// them before closing the queues (a send on a closed channel panics).
	submitters sync.WaitGroup
	wg         sync.WaitGroup
}

func newScheduler(workers, solverWorkers, cacheEntries int, tl *tele) *scheduler {
	s := &scheduler{
		workers:  make([]*worker, workers),
		inflight: make(map[string]*task),
		tele:     tl,
	}
	for i := range s.workers {
		w := &worker{
			queue:         make(chan *task, 256),
			cache:         newLRU(cacheEntries),
			solverWorkers: solverWorkers,
			tele:          tl.worker(i),
		}
		s.workers[i] = w
		s.wg.Add(1)
		//jellyvet:allow determinism,confinement -- the shard worker pool itself: w is handed off here, before the loop starts, and this goroutine becomes its sole owner
		go func() {
			defer s.wg.Done()
			for t := range w.queue {
				w.execute(s, t)
			}
		}()
	}
	return s
}

// do schedules a plan and blocks until its execution — or the identical
// in-flight execution it was deduplicated onto — completes. ctx is the
// execution context (checked at dequeue and polled by interruptible
// executors); dedup enables single-flight coalescing, onStart (optional)
// fires when execution actually begins on the worker. The returned
// trace is the execution's recorded span tree (nil with telemetry
// disabled); deduped followers and response-cache hits share the
// original execution's trace.
func (s *scheduler) do(ctx context.Context, p *plan, dedup bool, onStart func(), onEvent func([]byte)) ([]byte, *telemetry.Trace, error) {
	t := &task{plan: p, ctx: ctx, dedup: dedup, onStart: onStart, onEvent: onEvent, done: make(chan struct{})}
	t.enq = telemetry.StartTimer()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, nil, errSchedulerClosed
	}
	if dedup {
		if prior, ok := s.inflight[p.key]; ok {
			s.mu.Unlock()
			s.tele.deduped.Inc()
			<-prior.done
			// A deduped follower receives the leader's event stream after
			// the fact — identical payload bytes, just not live.
			if onEvent != nil && prior.err == nil {
				for _, e := range prior.events {
					onEvent(e)
				}
			}
			return prior.resp, prior.trace, prior.err
		}
		s.inflight[p.key] = t
	}
	s.submitters.Add(1)
	s.mu.Unlock()

	s.workers[s.shard(p.family)].queue <- t
	s.submitters.Done()
	<-t.done
	return t.resp, t.trace, t.err
}

// shard maps a topology-family key to its owning worker. Related requests
// — same design, same capacity-search inventory — always land together,
// so they find each other's warm state; the mapping itself can change
// with the worker count, which is safe because cached values are pure.
func (s *scheduler) shard(family string) int {
	h := fnv.New32a()
	h.Write([]byte(family))
	return int(h.Sum32() % uint32(len(s.workers)))
}

func (w *worker) execute(s *scheduler, t *task) {
	defer func() {
		w.cacheLen.Store(int64(w.cache.len()))
		if t.dedup {
			s.mu.Lock()
			delete(s.inflight, t.key)
			s.mu.Unlock()
		}
		close(t.done)
	}()
	s.tele.queueWait.ObserveSince(t.enq)
	if faultinject.Enabled() {
		// Chaos site: a stall here models a wedged shard worker (slow
		// disk, scheduler starvation) without touching kernel code. Only
		// the stall shape is meaningful — this runs outside runGuarded,
		// so error and panic shapes are ignored rather than allowed to
		// kill the shard goroutine.
		if f, ok := faultinject.Hit("sched.worker.stall"); ok && f.Stall {
			time.Sleep(faultinject.StallDuration)
		}
	}
	if t.ctx != nil {
		if err := t.ctx.Err(); err != nil {
			t.err = err
			return
		}
	}
	if v, ok := w.lookup(tierResp, "resp:"+t.key); ok {
		cr := v.(*cachedResult)
		if t.onEvent != nil {
			for _, e := range cr.events {
				t.onEvent(e)
			}
		}
		t.resp = cr.resp
		t.events = cr.events
		t.trace = cr.trace
		return
	}
	if t.onStart != nil {
		t.onStart()
	}
	// Record the execution: a root span named by the operation, with
	// whatever the executor and the kernels beneath it record nested
	// inside. The trace is extracted here — on the recorder's own
	// goroutine, after the work — and is immutable from then on.
	opT := telemetry.StartTimer()
	mark := w.tele.rec.Mark()
	w.tele.rec.Begin(t.op, 0)
	v, err := runGuarded(s, t, w)
	w.tele.rec.End()
	t.trace = w.tele.rec.TraceSince(mark)
	s.tele.opDur[t.op].ObserveSince(opT)
	if err != nil {
		t.err = err
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.err = &apiError{Status: http.StatusInternalServerError, Code: "internal", Message: err.Error()}
		return
	}
	t.resp = b
	if faultinject.Enabled() {
		// Chaos site: a cache-insert failure serves the response but skips
		// memoizing it, so the next identical request re-executes cold.
		// Correctness is unaffected (entries are pure functions of their
		// keys); chaos runs use it to prove hit/miss paths are
		// byte-identical.
		if _, failed := faultinject.Hit("sched.cache.insert"); failed {
			return
		}
	}
	w.cache.put("resp:"+t.key, &cachedResult{resp: b, events: t.events, trace: t.trace})
}

// runGuarded executes a plan, converting a panic into a 500. The shard
// goroutines are shared by every request on the shard — unlike net/http's
// per-connection goroutines — so an executor panic (a validation gap
// reaching one of the library's documented panic paths) must fail its one
// request, not kill the daemon and every in-flight job.
//
// Containment also discards the family's warm-state cache entries: a
// kernel that panicked mid-mutation may have left its memoized asset
// (capsearch family, compiled sim) half-updated, and the
// pure-function-of-key guarantee only covers values a completed
// execution produced. Dropping them costs one cold rebuild; keeping
// them could poison every later response on the shard. Chain
// checkpoints need no discard — they are only cached after their solve
// completes, so a panic can never publish a partial one.
func runGuarded(s *scheduler, t *task, w *worker) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			w.cache.remove(t.family)
			w.cache.remove("sim:" + t.family)
			s.tele.panics.Inc()
			err = &apiError{Status: http.StatusInternalServerError, Code: "internal_error",
				Message: fmt.Sprintf("executor panic: %v", r)}
		}
	}()
	ctx := t.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// Progress payloads are recorded on the task (for the response cache)
	// and forwarded live to the subscriber, in emission order. The sink
	// runs on this worker goroutine only, so the slice needs no locking.
	sink := func(b []byte) {
		t.events = append(t.events, b)
		if t.onEvent != nil {
			t.onEvent(b)
		}
	}
	return t.run(context.WithValue(ctx, emitKey{}, sink), w)
}

// close shuts the pool down after in-flight work drains. Submitting after
// close returns errSchedulerClosed.
func (s *scheduler) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.submitters.Wait()
	for _, w := range s.workers {
		close(w.queue)
	}
	s.wg.Wait()
}
