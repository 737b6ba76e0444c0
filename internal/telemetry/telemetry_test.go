package telemetry

import (
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	for range 5 {
		c.Inc()
	}
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(7)
	g.Inc()
	g.Dec()
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

// Every write method must accept a nil receiver: nil instruments ARE
// the telemetry-disabled mode.
func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *Gauge
	g.Set(1)
	g.Inc()
	g.Dec()
	var h *Histogram
	h.Observe(5)
	h.ObserveSince(StartTimer())
	var r *Recorder
	r.Begin("x", 0)
	r.End()
	if tr := r.TraceSince(r.Mark()); tr != nil {
		t.Fatal("nil recorder produced a trace")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0)    // bucket 0
	h.Observe(1)    // bucket 1: [1,2)
	h.Observe(1023) // bucket 10: [512,1024)
	h.Observe(1024) // bucket 11
	h.Observe(-5)   // clamps to 0 → bucket 0
	h.Observe(1 << 62)
	count, sum, buckets := h.snapshot()
	if count != 6 {
		t.Fatalf("snapshot count = %d", count)
	}
	if want := int64(0 + 1 + 1023 + 1024 + 0 + 1<<62); sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	for i, want := range map[int]int64{0: 2, 1: 1, 10: 1, 11: 1, HistogramBuckets - 1: 1} {
		if buckets[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, buckets[i], want)
		}
	}
}

func TestRecorderTree(t *testing.T) {
	r := NewRecorder(128)
	m := r.Mark()
	r.Begin("probe", 40)
	r.Begin("trial", 0)
	r.End()
	r.Begin("trial", 1)
	r.Begin("solve", 16)
	r.End()
	r.End()
	r.End()
	tr := r.TraceSince(m).Tree()
	if tr.Dropped != 0 {
		t.Fatalf("dropped = %d, want 0", tr.Dropped)
	}
	if len(tr.Spans) != 1 || tr.Spans[0].Name != "probe" || tr.Spans[0].Arg != 40 {
		t.Fatalf("roots = %+v, want one probe span", tr.Spans)
	}
	kids := tr.Spans[0].Children
	if len(kids) != 2 || kids[0].Name != "trial" || kids[1].Name != "trial" {
		t.Fatalf("probe children = %+v, want two trials", kids)
	}
	if kids[0].Arg != 0 || kids[1].Arg != 1 {
		t.Fatalf("trial order wrong: args %d,%d", kids[0].Arg, kids[1].Arg)
	}
	if len(kids[1].Children) != 1 || kids[1].Children[0].Name != "solve" {
		t.Fatalf("trial 1 children = %+v, want one solve", kids[1].Children)
	}
	if kids[0].DurNs < 0 || tr.Spans[0].StartNs != 0 {
		t.Fatalf("timing wrong: root start %d, trial dur %d", tr.Spans[0].StartNs, kids[0].DurNs)
	}
}

// Ring overflow keeps the most recent spans and reports the loss — the
// flight-recorder contract.
func TestRecorderTruncation(t *testing.T) {
	r := NewRecorder(64)
	m := r.Mark()
	for i := 0; i < 100; i++ {
		r.Begin("s", int64(i))
		r.End()
	}
	tr := r.TraceSince(m).Tree()
	if tr.Dropped != 36 {
		t.Fatalf("dropped = %d, want 36", tr.Dropped)
	}
	if len(tr.Spans) != 64 {
		t.Fatalf("kept %d spans, want 64", len(tr.Spans))
	}
	if tr.Spans[len(tr.Spans)-1].Arg != 99 {
		t.Fatalf("newest span arg = %d, want 99", tr.Spans[len(tr.Spans)-1].Arg)
	}
}

// A Mark taken mid-history excludes everything before it.
func TestTraceSinceMark(t *testing.T) {
	r := NewRecorder(128)
	r.Begin("old", 0)
	r.End()
	m := r.Mark()
	r.Begin("new", 0)
	r.End()
	tr := r.TraceSince(m).Tree()
	if len(tr.Spans) != 1 || tr.Spans[0].Name != "new" {
		t.Fatalf("spans = %+v, want just the new one", tr.Spans)
	}
}

// Over-deep nesting degrades (drops the deepest spans) without
// corrupting the stack.
func TestRecorderDepthOverflow(t *testing.T) {
	r := NewRecorder(256)
	m := r.Mark()
	for i := 0; i < maxOpenSpans+5; i++ {
		r.Begin("deep", int64(i))
	}
	for i := 0; i < maxOpenSpans+5; i++ {
		r.End()
	}
	tr := r.TraceSince(m).Tree()
	if tr.Dropped != 5 {
		t.Fatalf("dropped = %d, want 5", tr.Dropped)
	}
	if len(tr.Spans) != 1 {
		t.Fatalf("roots = %d, want 1", len(tr.Spans))
	}
	// After realignment the recorder still works.
	r.Begin("after", 0)
	r.End()
	if tr := r.TraceSince(m).Tree(); tr.Dropped != 5 {
		t.Fatalf("post-recovery dropped = %d, want 5", tr.Dropped)
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("jf_hits_total", "cache hits", Labels("tier", "resp", "worker", "0"))
	reg.Counter("jf_hits_total", "cache hits", Labels("tier", "resp", "worker", "1"))
	for range 3 {
		c.Inc()
	}
	g := reg.Gauge("jf_depth", "queue depth", "")
	g.Set(2)
	reg.GaugeFunc("jf_live", "liveness", "", func() int64 { return 1 })
	h := reg.Histogram("jf_wait_seconds", "queue wait", "")
	h.Observe(1000) // bucket 10, le (2^10-1)/1e9
	h.Observe(0)

	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP jf_hits_total cache hits\n# TYPE jf_hits_total counter\n",
		`jf_hits_total{tier="resp",worker="0"} 3`,
		`jf_hits_total{tier="resp",worker="1"} 0`,
		"# TYPE jf_depth gauge",
		"jf_depth 2",
		"jf_live 1",
		"# TYPE jf_wait_seconds histogram",
		`jf_wait_seconds_bucket{le="0"} 1`,
		`jf_wait_seconds_bucket{le="1.023e-06"} 2`,
		`jf_wait_seconds_bucket{le="+Inf"} 2`,
		"jf_wait_seconds_sum 1e-06",
		"jf_wait_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// HELP/TYPE once per family, not per series.
	if strings.Count(out, "# TYPE jf_hits_total") != 1 {
		t.Errorf("family header repeated:\n%s", out)
	}
}

// The instruments a hot path may call must not allocate — the same
// contract the jellyvet hotpath analyzer and the kernel AllocsPerRun
// pins enforce at their call sites.
func TestHotPathInstrumentsZeroAlloc(t *testing.T) {
	var c Counter
	var g Gauge
	var h Histogram
	r := NewRecorder(128)
	if n := testing.AllocsPerRun(100, func() {
		tm := StartTimer()
		c.Inc()
		g.Set(1)
		g.Add(1)
		h.Observe(17)
		h.ObserveSince(tm)
		r.Begin("span", 1)
		r.End()
		_ = r.Mark()
	}); n != 0 {
		t.Fatalf("hot-path instruments allocated %v/op, want 0", n)
	}
}
