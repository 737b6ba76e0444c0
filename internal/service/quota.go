package service

import (
	"hash/fnv"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Per-client quotas: a token-bucket table keyed by client host that
// sheds abusive load with 429 before it reaches admission control or
// the shard queues. Quotas are an operator opt-in (Options.ClientQPS;
// off by default) and cover the endpoints that create work — the sync
// planning endpoints and job submission. Reads (job polls, event
// streams, metrics) stay unmetered: a client waiting on its own job
// must not be starved into never seeing it finish.
//
// Rejections carry a Retry-After hint with a small deterministic
// per-client jitter (a hash of the client host), so a herd of rejected
// clients that all honor the header does not re-arrive in one wave.
// The jitter is a function of the key, not of a random stream or the
// clock — quota behavior stays reproducible under test.

// maxQuotaClients bounds the bucket table. At the cap, admitting a new
// client evicts the fullest bucket — the client who least recently
// exhausted its quota and therefore loses the least by starting fresh.
const maxQuotaClients = 1024

type quotaBucket struct {
	tokens float64
	last   time.Time
}

// quotaTable is the shared token-bucket table. One mutex over a small
// map is plenty: the critical section is a few float ops, orders of
// magnitude cheaper than the planning work behind it.
type quotaTable struct {
	qps   float64
	burst float64
	// now is the clock, injectable so tests drive refill deterministically.
	now  func() time.Time
	tele *tele

	mu      sync.Mutex
	buckets map[string]*quotaBucket
}

func newQuotaTable(qps float64, burst int, tl *tele) *quotaTable {
	if burst <= 0 {
		burst = int(qps) + 1
	}
	return &quotaTable{
		qps:     qps,
		burst:   float64(burst),
		now:     time.Now, //jellyvet:allow determinism -- quota refill clock; load shedding, never part of a response body
		tele:    tl,
		buckets: make(map[string]*quotaBucket),
	}
}

// allow spends one token from the client's bucket, reporting whether
// the request may proceed and, if not, the Retry-After hint in seconds.
func (q *quotaTable) allow(key string) (ok bool, retryAfter int) {
	t := q.now()
	q.mu.Lock()
	defer q.mu.Unlock()
	b, found := q.buckets[key]
	if !found {
		if len(q.buckets) >= maxQuotaClients {
			q.evictFullestLocked()
		}
		b = &quotaBucket{tokens: q.burst, last: t}
		q.buckets[key] = b
	} else {
		b.tokens += t.Sub(b.last).Seconds() * q.qps
		if b.tokens > q.burst {
			b.tokens = q.burst
		}
		b.last = t
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	// Seconds until one token refills, plus the per-client jitter.
	wait := (1 - b.tokens) / q.qps
	return false, int(wait) + 1 + quotaJitter(key)
}

// evictFullestLocked drops the bucket with the most tokens (ties by
// smaller key, so eviction is deterministic). A full bucket belongs to
// a client that has not spent quota recently; evicting it re-admits
// them at full burst, which is indistinguishable from keeping it.
func (q *quotaTable) evictFullestLocked() {
	victim := ""
	best := -1.0
	//jellyvet:allow determinism -- max-by-(tokens,key) reduction; result independent of iteration order
	for k, b := range q.buckets {
		if b.tokens > best || (b.tokens == best && (victim == "" || k < victim)) {
			victim, best = k, b.tokens
		}
	}
	if victim != "" {
		delete(q.buckets, victim)
	}
}

// quotaJitter spreads Retry-After hints over [0,3) seconds as a pure
// function of the client key.
func quotaJitter(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % 3)
}

// clientKey extracts the quota key from a request: the client host
// without the ephemeral port, falling back to the raw RemoteAddr when
// it does not parse (test servers, unix sockets).
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// checkQuota enforces the per-client quota for a work-creating request.
// nil table (quotas disabled) always admits.
func (q *quotaTable) checkQuota(w http.ResponseWriter, r *http.Request) *apiError {
	if q == nil {
		return nil
	}
	ok, retryAfter := q.allow(clientKey(r))
	if ok {
		return nil
	}
	q.tele.quotaRejects.Inc()
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	return &apiError{Status: http.StatusTooManyRequests, Code: "quota_exceeded",
		Message: "per-client request quota exceeded; honor Retry-After and slow down"}
}
