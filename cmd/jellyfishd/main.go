// Command jellyfishd is the resident topology-planning service: the
// library's planning operations served over HTTP/JSON, with a sharded
// warm-state cache that keeps solver state hot across related requests
// (DESIGN.md §10).
//
// Usage:
//
//	jellyfishd [-addr :8080] [-workers 4] [-solver-workers 1] [-cache 128] [-max-sync 32] [-state-dir DIR] [-debug-addr :6060] [-no-telemetry] [-client-qps N] [-faultinject SCHEDULE]
//
// Endpoints (all request/response bodies are JSON unless noted):
//
//	GET  /healthz                  liveness probe
//	GET  /metrics                  Prometheus text exposition (scheduler, caches, kernels, job store)
//	GET  /v1/trace/{id}            finished job's recorded span tree (flight recorder)
//	POST /v1/design                construct a Jellyfish, return stats + blueprint
//	POST /v1/evaluate              optimal-routing throughput (random permutation)
//	POST /v1/capacity-search       Fig. 2(c)-style max-servers search
//	POST /v1/whatif                chain-evaluated failure/expansion scenarios
//	POST /v1/rewire-plan           cable moves turning one topology into another
//	POST /v1/jobs                  submit any of the above asynchronously
//	GET  /v1/jobs                  list jobs
//	GET  /v1/jobs/{id}             job status + result envelope
//	GET  /v1/jobs/{id}/events      stream progress as SSE, then a done frame
//	GET  /v1/jobs/{id}/result      succeeded job's raw result document
//	POST /v1/jobs/{id}/cancel      cancel a queued or running job
//
// With -debug-addr the Go pprof handlers (net/http/pprof) are served on
// a separate listener at /debug/pprof/ — a private loopback address by
// convention, never the public one, so profiling endpoints are not
// exposed alongside the API. -no-telemetry turns the observability
// surface off entirely; responses are byte-identical either way
// (telemetry is strictly one-way; DESIGN.md §15).
//
// With -state-dir the job store survives the process: submissions are
// journaled before they are acknowledged, and on the next boot finished
// jobs are fetchable again while interrupted ones re-run automatically.
// On SIGTERM/SIGINT the daemon drains: it stops admitting work, lets
// in-flight jobs finish (up to the shutdown timeout), snapshots, and
// exits; a SIGKILL instead costs only the jobs' progress, never their
// submissions (DESIGN.md §14).
//
// Responses are deterministic: the same request body yields byte-identical
// response bytes regardless of -workers, cache state, restarts, or request
// interleaving — and the same holds for every /events payload frame. See
// examples/operations for a scripted session.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"jellyfish/internal/faultinject"
	"jellyfish/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 4, "shard workers (each owns a warm-state cache; any value yields identical responses)")
	solverWorkers := flag.Int("solver-workers", 1, "CPU parallelism per flow solve; 0 = all cores when -workers is 1, otherwise 1 (many shard workers each running all-core solves would oversubscribe the machine — cross-request parallelism comes from -workers)")
	cacheEntries := flag.Int("cache", 128, "cache entries per worker: a sixth stays with the worker for warm state (families, what-if chains, compiled sims), the rest pools into one response cache shared by all workers")
	maxSync := flag.Int("max-sync", 0, "admitted concurrent synchronous requests before shedding load with 429 + Retry-After (0 = 8×workers, negative = unlimited; the job API is never gated)")
	stateDir := flag.String("state-dir", "", "directory for the durable job store (empty = memory-only); replayed on boot so jobs survive restarts")
	debugAddr := flag.String("debug-addr", "", "separate listen address for Go pprof handlers at /debug/pprof/ (empty = disabled; bind to loopback, e.g. 127.0.0.1:6060)")
	noTelemetry := flag.Bool("no-telemetry", false, "disable the observability surface (/metrics, /v1/trace, flight recorders); responses are identical either way")
	clientQPS := flag.Float64("client-qps", 0, "per-client quota on work-creating endpoints, requests/second (0 = disabled); exceeded clients get 429 + Retry-After")
	clientBurst := flag.Int("client-burst", 0, "per-client quota bucket depth (0 = client-qps+1)")
	faultSchedule := flag.String("faultinject", os.Getenv("JELLYFISHD_FAULTINJECT"),
		"deterministic fault schedule for chaos testing, e.g. persist.append:3-2:enospc (see internal/faultinject; default from JELLYFISHD_FAULTINJECT; empty = disabled)")
	flag.Parse()

	if *faultSchedule != "" {
		deactivate, err := faultinject.Activate(*faultSchedule)
		if err != nil {
			log.Fatalf("jellyfishd: -faultinject: %v", err)
		}
		defer deactivate()
		log.Printf("jellyfishd: FAULT INJECTION ACTIVE: %s", *faultSchedule)
	}

	srv, err := service.New(service.Options{
		Workers:          *workers,
		SolverWorkers:    *solverWorkers,
		CacheEntries:     *cacheEntries,
		MaxSyncInflight:  *maxSync,
		StateDir:         *stateDir,
		DisableTelemetry: *noTelemetry,
		ClientQPS:        *clientQPS,
		ClientBurst:      *clientBurst,
	})
	if err != nil {
		log.Fatalf("jellyfishd: %v", err)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The pprof surface rides a separate listener so profiling handlers
	// never share an address with the public API. DefaultServeMux is
	// deliberately avoided: only the pprof routes are mounted.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           dmux,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug listener: %v", err)
			}
		}()
		log.Printf("jellyfishd debug (pprof) listening on %s", *debugAddr)
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("jellyfishd listening on %s (%d workers)", *addr, *workers)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("received %v, shutting down", sig)
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("serve: %v", err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if debugSrv != nil {
		if err := debugSrv.Shutdown(ctx); err != nil {
			log.Printf("debug shutdown: %v", err)
		}
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	// Graceful drain: finish (and journal) in-flight jobs within the
	// timeout; past it they are interrupted un-journaled, so a durable
	// store re-runs them on the next boot.
	srv.Drain(ctx)
}
