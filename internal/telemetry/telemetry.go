// Package telemetry is the stack's observability core: fixed-slot atomic
// counters and gauges, power-of-two-bucket latency histograms, and a
// per-goroutine span ring buffer (the flight recorder), all stdlib-only
// and allocation-free on the instrumented path.
//
// The package exists so the deterministic kernels (internal/mcf,
// internal/capsearch, internal/service, …) can be instrumented without
// perturbing their results. Two rules make that safe, and the jellyvet
// obsconfine analyzer enforces both (DESIGN.md §15):
//
//  1. One-way flow. Telemetry reads clocks and writes atomics; its
//     values never feed back into computation. All wall-clock reads live
//     HERE — a deterministic package calls StartTimer/Observe/Begin and
//     never touches time.Now itself, so the determinism analyzer's
//     no-clock rule stays intact for kernel code.
//  2. Zero-alloc instrumentation. Every method a hot path may call
//     (Counter.Inc, Gauge.Set/Add/Inc/Dec, Histogram.Observe/
//     ObserveSince, StartTimer, Recorder.Begin/End/Mark) performs no
//     allocation and no locking: plain atomics into preallocated slots.
//
// Every type is nil-safe: a nil *Counter, *Gauge, *Histogram, or
// *Recorder accepts all of its write methods as no-ops, so "telemetry
// disabled" is represented by nil instruments with no branches at call
// sites and no second code path to keep byte-identical.
package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// base anchors the package's monotonic clock: all timestamps are
// nanoseconds since process start, read via time.Since so they use the
// runtime's monotonic reading (immune to wall-clock steps).
var base = time.Now()

// nowNanos returns monotonic nanoseconds since process start.
func nowNanos() int64 { return int64(time.Since(base)) }

// A Counter is a monotonically increasing atomic counter. The zero
// value and nil are both ready to use (nil discards writes).
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// A Gauge is an atomic instantaneous value. Nil discards writes.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the value by n.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// HistogramBuckets is the fixed bucket count of every Histogram: bucket
// i holds observations v (nanoseconds) with bits.Len64(v) == i, i.e.
// v ∈ [2^(i-1), 2^i). Bucket 0 holds v = 0 and the last bucket absorbs
// everything ≥ 2^(HistogramBuckets-2) (~1.6 days), so no observation is
// ever dropped. Power-of-two bucketing keeps Observe at one bits.Len64
// plus one atomic add — no search, no float math, no allocation.
const HistogramBuckets = 48

// A Histogram accumulates nanosecond durations into power-of-two
// buckets. All fields are atomics: concurrent Observe calls from many
// goroutines are safe, and WritePrometheus snapshots without locking
// writers out. Nil discards observations.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	buckets [HistogramBuckets]atomic.Int64
}

// Observe records a duration in nanoseconds (negative values clamp to
// zero rather than corrupting the bucket index).
func (h *Histogram) Observe(ns int64) {
	if h == nil {
		return
	}
	if ns < 0 {
		ns = 0
	}
	b := bits.Len64(uint64(ns))
	if b >= HistogramBuckets {
		b = HistogramBuckets - 1
	}
	h.count.Add(1)
	h.sum.Add(ns)
	h.buckets[b].Add(1)
}

// ObserveSince records the elapsed time of t.
func (h *Histogram) ObserveSince(t Timer) { h.Observe(t.ElapsedNanos()) }

// snapshot copies the atomics for exposition. Buckets are read after
// count, so a concurrent Observe can at worst surface in the buckets
// but not the count — the exposition stays internally monotone because
// the writer emits cumulative bucket counts capped at the sampled
// count.
func (h *Histogram) snapshot() (count, sum int64, buckets [HistogramBuckets]int64) {
	count = h.count.Load()
	sum = h.sum.Load()
	for i := range h.buckets {
		buckets[i] = h.buckets[i].Load()
	}
	return count, sum, buckets
}

// bucketUpperNanos returns the inclusive upper bound of bucket i: the
// largest duration it can hold, 2^i − 1 nanoseconds.
func bucketUpperNanos(i int) int64 { return int64(1)<<uint(i) - 1 }

// A Timer is a captured start instant. It is a plain value (no pointer,
// no allocation); the zero Timer reads as "started at process start",
// which only ever happens when telemetry is disabled and the resulting
// observation is discarded by a nil instrument.
type Timer struct{ start int64 }

// StartTimer captures the current monotonic instant.
func StartTimer() Timer { return Timer{start: nowNanos()} }

// ElapsedNanos returns nanoseconds since the timer started.
func (t Timer) ElapsedNanos() int64 { return nowNanos() - t.start }
