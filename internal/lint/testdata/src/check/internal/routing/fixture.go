// Package routing is an obsconfine fixture: its import path ends in
// internal/routing, a declared deterministic package, so telemetry
// calls here must be one-way — and the hotpath-allowlist rule is
// exercised on a //jellyvet:hotpath function.
package routing

import "check/internal/telemetry"

var (
	phases telemetry.Counter
	depth  telemetry.Gauge
	dur    telemetry.Histogram
	rec    telemetry.Recorder
)

// instrumented is the negative control: write-only instrumentation,
// inert telemetry values, results flowing only back into telemetry.
func instrumented() {
	t := telemetry.StartTimer() // ok: Timer is a telemetry type
	rec.Begin("phase", 1)
	phases.Inc()
	depth.Set(3)
	rec.End()
	dur.ObserveSince(t)
	dur.Observe(t.ElapsedNanos()) // ok: result flows into a telemetry call
	m := rec.Mark()               // ok: Mark is a telemetry type
	c := rec.TraceSince(m)        // ok: *Capture is a telemetry type
	_ = c.Tree()                  // ok: *Trace is a telemetry type
}

// feedback lets telemetry read-outs escape into computation — the bug
// class obsconfine exists for.
func feedback() int64 {
	n := phases.Value()   // want `result of telemetry.Value feeds back into computation`
	if dur.Count() > 10 { // want `result of telemetry.Count feeds back into computation`
		n++
	}
	return n
}

// returned leaks a read-out to the caller.
func returned() int64 {
	return depth.Value() // want `result of telemetry.Value feeds back into computation`
}

// snapshot is a reviewed diagnostic read-out: allowed with a reason.
func snapshot() int64 {
	return phases.Value() //jellyvet:allow obsconfine -- stats-endpoint read-out; never enters a response digest
}

// kernel is the hotpath-allowlist case: the zero-alloc instruments are
// fine, trace extraction is not.
//
//jellyvet:hotpath
func kernel() {
	t := telemetry.StartTimer()
	phases.Inc()
	rec.Begin("sweep", 0)
	rec.End()
	dur.ObserveSince(t)
	_ = rec.TraceSince(rec.Mark()) // want `telemetry.TraceSince in a //jellyvet:hotpath function`
}
