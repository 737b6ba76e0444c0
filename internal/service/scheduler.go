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
// owning a warm-state cache. A topology family is placed the first time
// it is seen on the shard with the fewest queued and running tasks, and
// every later request for it goes to that home shard. One goroutine per
// worker executes that shard's requests sequentially, which is what
// makes holding mutable warm assets (capsearch.Family memoization,
// reusable solver chains) safe without any locking: confinement, not
// synchronization, is the ownership story.
// Finished responses are the exception: they are immutable, so they live
// in one response tier the scheduler shares across shards and serves
// before a request ever queues.
//
// Determinism argument (tested end to end in determinism_test.go): every
// cache entry — response bytes, chain checkpoints, topology families — is
// a pure function of its key, and keys are canonical content digests of
// the request (or of a chain prefix of it). A cache hit therefore returns
// exactly the bytes/state a cold execution would have computed, and the
// shard a family lands on — which changes with the worker count and with
// the load at its first request — can affect only wall-clock, never
// results.

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
	trace  *telemetry.Capture
	err    error
}

// A cachedResult is one response-tier entry: the response bytes plus
// the progress-event payloads the execution emitted. They live in one
// entry so a cache hit replays exactly the event stream a cold
// execution produces — evicting one without the other could otherwise
// split the determinism guarantee between response and stream.
type cachedResult struct {
	resp   []byte
	events [][]byte
	// trace holds the spans the original execution recorded, shared by
	// every hit so a cached job's /v1/trace answer matches the cold
	// run's. Traces are diagnostics, NOT covered by the determinism
	// guarantee (their durations are wall-clock), which is why they live
	// beside the guaranteed bytes rather than inside them.
	trace *telemetry.Capture
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
	// load counts the tasks queued on or running in this shard: raised
	// at enqueue, lowered when execute finishes. Placement reads it.
	load atomic.Int64
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
	// resp is the response tier, shared by every shard (cacheSplit).
	resp *respCache
	tele *tele

	mu       sync.Mutex
	inflight map[string]*task
	// home maps a family to the shard it was placed on (an int), under
	// mu, bounded like the warm caches it steers requests to.
	home lruList
	// placements counts first placements that chose the hash shard and
	// that chose a less-loaded one (placeHash, placeLeastLoaded).
	placements [2]atomic.Int64
	// closed is set under mu (so a submit racing close is decided there)
	// and read without it on the hit path.
	closed atomic.Bool
	// submitters tracks in-progress queue sends so close can wait for
	// them before closing the queues (a send on a closed channel panics).
	submitters sync.WaitGroup
	wg         sync.WaitGroup
}

// cacheSplit divides the entry budget of workers × cacheEntries between
// the shared response tier and the per-worker warm-state LRUs (family:,
// chain:, sim:): each worker keeps a sixth of its cacheEntries for warm
// state, and the rest pools into the response tier. Responses are most
// of what a planning workload caches, while warm entries (compiled sims
// above all) are the large ones, so a bigger warm share costs resident
// memory; DESIGN.md §10 gives the traced run behind the sixth.
func cacheSplit(workers, cacheEntries int) (shared, perWorker int) {
	perWorker = cacheEntries / 6
	return workers * (cacheEntries - perWorker), perWorker
}

func newScheduler(workers, solverWorkers, cacheEntries int, tl *tele) *scheduler {
	shared, perWorker := cacheSplit(workers, cacheEntries)
	s := &scheduler{
		workers:  make([]*worker, workers),
		resp:     newRespCache(shared),
		inflight: make(map[string]*task),
		home:     newLRUList(workers * perWorker),
		tele:     tl,
	}
	for i := range s.workers {
		w := &worker{
			queue:         make(chan *task, 256),
			cache:         newLRU(perWorker),
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
// in-flight execution it was deduplicated onto — completes. A response
// already in the response tier is served on the caller's goroutine,
// before single-flight and enqueue, so a hit never waits behind a busy
// shard. ctx is the execution context (checked here, again at dequeue,
// and polled by the executors and the kernels beneath them; never nil);
// dedup enables single-flight coalescing, onStart (optional) fires when
// execution actually begins on the worker. The returned trace is the
// execution's recorded spans (nil with telemetry disabled); deduped
// followers and response-tier hits share the original execution's trace.
func (s *scheduler) do(ctx context.Context, p *plan, dedup bool, onStart func(), onEvent func([]byte)) ([]byte, *telemetry.Capture, error) {
	if s.closed.Load() {
		return nil, nil, errSchedulerClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if cr, ok := s.resp.get(p.key); ok {
		s.tele.respHits.Inc()
		replayEvents(cr.events, onEvent)
		return cr.resp, cr.trace, nil
	}
	t := &task{plan: p, ctx: ctx, dedup: dedup, onStart: onStart, onEvent: onEvent, done: make(chan struct{})}
	t.enq = telemetry.StartTimer()
	s.mu.Lock()
	if s.closed.Load() {
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
			if prior.err == nil {
				replayEvents(prior.events, onEvent)
			}
			return prior.resp, prior.trace, prior.err
		}
		s.inflight[p.key] = t
	}
	w := s.workers[s.place(p.family)]
	w.load.Add(1)
	s.submitters.Add(1)
	s.mu.Unlock()

	w.queue <- t
	s.submitters.Done()
	<-t.done
	return t.resp, t.trace, t.err
}

// The two kinds of first placement, indexing scheduler.placements.
const (
	placeHash = iota
	placeLeastLoaded
)

// place returns the shard a family's request runs on: the family's home
// if it has one, else — its first request, or the first since its home
// was evicted — the shard with the fewest queued and running tasks,
// which becomes its home. Ties go to the family's hash shard. Related
// requests (same design, same capacity-search inventory) thus keep
// landing together and find each other's warm state, even when the
// home is busy, while a new family does not queue behind a busy shard
// when another sits idle. Caller holds s.mu.
func (s *scheduler) place(family string) int {
	if v, ok := s.home.get(family); ok {
		return v.(int)
	}
	h := s.shard(family)
	best, bestLoad := h, s.workers[h].load.Load()
	for i, w := range s.workers {
		if l := w.load.Load(); l < bestLoad {
			best, bestLoad = i, l
		}
	}
	if best == h {
		s.placements[placeHash].Add(1)
	} else {
		s.placements[placeLeastLoaded].Add(1)
	}
	s.home.put(family, best)
	return best
}

// shard is a family's hash shard: an FNV hash of its key mod the worker
// count, which breaks placement ties. It can change with the worker
// count, which is safe because cached values are pure.
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
		w.load.Add(-1)
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
	if err := t.ctx.Err(); err != nil {
		t.err = err
		return
	}
	// Re-check the response tier: an identical job queued behind the
	// execution that filled it (jobs skip single-flight) runs only once.
	if cr, ok := s.resp.get(t.key); ok {
		s.tele.respHits.Inc()
		replayEvents(cr.events, t.onEvent)
		t.resp = cr.resp
		t.events = cr.events
		t.trace = cr.trace
		return
	}
	s.tele.respMisses.Inc()
	if t.onStart != nil {
		t.onStart()
	}
	// Record the execution: a root span named by the operation, with
	// whatever the executor and the kernels beneath it record nested
	// inside. The spans are captured here — on the recorder's own
	// goroutine, after the work — and are immutable from then on.
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
	b, err := marshalResponse(v)
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
	s.resp.put(t.key, &cachedResult{resp: b, events: t.events, trace: t.trace})
}

// marshalResponse encodes an executor's response as json.Marshal does,
// through the response's own appender where it has one.
func marshalResponse(v any) ([]byte, error) {
	if a, ok := v.(interface{ appendJSON([]byte) ([]byte, error) }); ok {
		return a.appendJSON(nil)
	}
	return json.Marshal(v)
}

// replayEvents feeds a recorded event stream to onEvent (if any) in emission
// order: a hit's or a follower's subscriber sees exactly the payloads a
// cold execution emits.
func replayEvents(events [][]byte, onEvent func([]byte)) {
	if onEvent == nil {
		return
	}
	for _, e := range events {
		onEvent(e)
	}
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
	// Progress payloads are recorded on the task (for the response cache)
	// and forwarded live to the subscriber, in emission order. The sink
	// runs on this worker goroutine only, so the slice needs no locking.
	sink := func(b []byte) {
		t.events = append(t.events, b)
		if t.onEvent != nil {
			t.onEvent(b)
		}
	}
	return t.run(context.WithValue(t.ctx, emitKey{}, sink), w)
}

// close shuts the pool down after in-flight work drains. Submitting after
// close returns errSchedulerClosed.
func (s *scheduler) close() {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return
	}
	s.closed.Store(true)
	s.mu.Unlock()
	s.submitters.Wait()
	for _, w := range s.workers {
		close(w.queue)
	}
	s.wg.Wait()
}
