// Package parallel provides the bounded worker pool that fans out the
// embarrassingly parallel pieces of the evaluation: independent experiment
// trials, per-source route-table construction, and batched shortest-path
// sweeps inside the flow solver.
//
// Determinism is the design constraint. Every helper returns results in
// index order, and per-task randomness is derived from a root seed by
// stable index (never by completion order), so a computation produces
// bit-identical output whether it runs on one worker or sixty-four.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"jellyfish/internal/rng"
)

// Workers resolves a worker-count knob: n > 0 is used as given; 0 (and any
// negative value) selects runtime.NumCPU().
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// ForEach runs fn(i) for every i in [0, n) on at most Workers(workers)
// goroutines. Tasks are claimed dynamically and in index order: each idle
// worker takes the lowest index not yet started, so uneven task costs
// balance across workers, best when the costliest tasks have the lowest
// indices. With one worker (or one task) everything runs inline on the
// calling goroutine. fn must write only to per-index state.
func ForEach(workers, n int, fn func(i int)) {
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ForEachWorker is ForEach with a worker identity: fn(worker, i) runs with
// worker ∈ [0, W) where W = min(Workers(workers), n), and no two calls with
// the same worker index ever run concurrently. That makes `worker` a safe
// index into caller-owned scratch (one reusable buffer per worker instead
// of one allocation per task) — the pattern the flow solver's Dijkstra
// sweeps use to stay allocation-free across phases.
//
// Which worker claims which task is scheduling-dependent, so determinism
// has a contract: fn's observable result for index i must not depend on the
// worker index or on leftover scratch state. Callers that reuse scratch
// must reset it (cheaply — e.g. generation stamps) at the top of fn.
//
// With one worker (or one task) everything runs inline on the calling
// goroutine as worker 0, allocating nothing.
func ForEachWorker(workers, n int, fn func(worker, i int)) {
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(g)
	}
	wg.Wait()
}

// MapWorker is Map with a worker identity (see ForEachWorker): out[i] =
// fn(worker, i) in index order, where fn may reuse per-worker scratch as
// long as the result for each index is worker-independent.
func MapWorker[T any](workers, n int, fn func(worker, i int) T) []T {
	out := make([]T, n)
	ForEachWorker(workers, n, func(worker, i int) { out[i] = fn(worker, i) })
	return out
}

// Map computes fn(i) for every i in [0, n) concurrently and returns the
// results in index order: out[i] = fn(i) regardless of worker count or
// scheduling.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(workers, n, func(i int) { out[i] = fn(i) })
	return out
}

// MapSeeded is Map with a per-task random stream: task i receives
// root.SplitN(label, i), derived by stable index so the stream it sees does
// not depend on which worker runs it or when.
func MapSeeded[T any](workers int, root *rng.Source, label string, n int, fn func(i int, src *rng.Source) T) []T {
	return Map(workers, n, func(i int) T { return fn(i, root.SplitN(label, i)) })
}

// SumFloat64 computes fn(i) concurrently and sums the results in index
// order, preserving the floating-point accumulation order of the
// equivalent sequential loop.
func SumFloat64(workers, n int, fn func(i int) float64) float64 {
	vals := Map(workers, n, fn)
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum
}

// All reports whether fn(i) holds for every i in [0, n). The answer is a
// pure AND over independent per-index results, so it is worker-count
// independent; a failure stops un-started indices early (tasks already
// running finish), which only skips work, never changes the answer —
// callers must derive any per-index randomness by index, not share a
// stream across indices.
func All(workers, n int, fn func(i int) bool) bool {
	var failed atomic.Bool
	ForEach(workers, n, func(i int) {
		if failed.Load() {
			return
		}
		if !fn(i) {
			failed.Store(true)
		}
	})
	return !failed.Load()
}
