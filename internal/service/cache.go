package service

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// lruList is the bookkeeping of an entry-count-bounded LRU over string
// keys, shared by the two caches below. It is not thread-safe: each user
// supplies its own ownership story.
type lruList struct {
	cap   int
	order *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	val any
}

func newLRUList(capacity int) lruList {
	return lruList{cap: capacity, order: list.New(), items: make(map[string]*list.Element)}
}

func (c *lruList) get(key string) (any, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

func (c *lruList) put(key string, val any) {
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, val: val})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// remove drops one entry, if present. Used by panic containment to
// discard a family's possibly-poisoned warm state: a kernel that
// panicked mid-mutation may have left the memoized asset inconsistent,
// and the pure-function-of-key guarantee only holds for values a
// completed execution produced.
func (c *lruList) remove(key string) {
	if el, ok := c.items[key]; ok {
		c.order.Remove(el)
		delete(c.items, key)
	}
}

func (c *lruList) len() int { return c.order.Len() }

// lru is the per-worker warm-state cache. It is deliberately NOT
// thread-safe — each instance is owned by exactly one shard worker
// goroutine, which is the whole ownership story for the mutable warm
// assets it holds (capsearch.Family memoization, chain checkpoints,
// compiled sims). The cached values themselves are pure functions of
// their keys, so eviction can change wall-clock but never a response
// (DESIGN.md §10).
//
//jellyvet:confined
type lru struct{ lruList }

func newLRU(capacity int) *lru { return &lru{newLRUList(capacity)} }

// respCache is the response tier: finished responses by canonical
// request digest, one instance shared by every shard. Unlike lru it is
// safe for concurrent use — scheduler.do reads it on the caller's
// goroutine, before single-flight and enqueue, so a hit never waits
// behind a busy shard — and it needs no confinement because its values
// are immutable once stored. A hit holds the mutex for one map lookup
// and one list splice.
type respCache struct {
	mu      sync.Mutex
	entries lruList
	// size mirrors entries.len() for the cache-entries gauge, which
	// reads it without taking mu (a scrape never waits on a writer).
	size atomic.Int64
}

func newRespCache(capacity int) *respCache { return &respCache{entries: newLRUList(capacity)} }

func (c *respCache) get(key string) (*cachedResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.entries.get(key)
	if !ok {
		return nil, false
	}
	return v.(*cachedResult), true
}

func (c *respCache) put(key string, val *cachedResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries.put(key, val)
	c.size.Store(int64(c.entries.len()))
}
