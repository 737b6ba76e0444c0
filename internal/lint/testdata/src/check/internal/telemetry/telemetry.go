// Package telemetry is a stub of jellyfish/internal/telemetry for the
// obsconfine fixtures: the analyzer matches it by import-path suffix,
// so only the call surface matters, not the implementations.
package telemetry

type Counter struct{ v int64 }

func (c *Counter) Inc()         {}
func (c *Counter) Value() int64 { return c.v }

type Gauge struct{ v int64 }

func (g *Gauge) Set(n int64)  {}
func (g *Gauge) Value() int64 { return g.v }

type Histogram struct{}

func (h *Histogram) Observe(ns int64)     {}
func (h *Histogram) ObserveSince(t Timer) {}
func (h *Histogram) Count() int64         { return 0 }

type Timer struct{ start int64 }

func StartTimer() Timer             { return Timer{} }
func (t Timer) ElapsedNanos() int64 { return 0 }

type Mark struct{ n uint64 }

type Span struct{ Name string }

type Trace struct{ Spans []*Span }

type Capture struct{}

func (c *Capture) Tree() *Trace { return nil }

type Recorder struct{}

func (r *Recorder) Begin(name string, arg int64) {}
func (r *Recorder) End()                         {}
func (r *Recorder) Mark() Mark                   { return Mark{} }
func (r *Recorder) TraceSince(m Mark) *Capture   { return nil }
