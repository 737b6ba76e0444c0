// The flight recorder: a fixed-capacity ring buffer of completed spans,
// confined to one goroutine (each scheduler shard worker owns one).
// Begin/End cost two struct writes and two clock reads — no atomics, no
// allocation, no locking — which is what lets solver phases and warm-
// chain steps be recorded from inside kernel loops. Old spans are
// overwritten, never flushed: like an aircraft flight recorder, the
// ring always holds the most recent window, and TraceSince reports how
// many spans the window lost.

package telemetry

import "sort"

// spanRec is one completed span in the ring.
type spanRec struct {
	id, parent uint64
	start, end int64 // monotonic nanoseconds
	arg        int64
	name       string
}

// openSpan is a begun-but-unfinished span on the recorder's stack.
type openSpan struct {
	id    uint64
	start int64
	arg   int64
	name  string
}

// maxOpenSpans bounds span nesting. Begins past this depth are counted
// as dropped and their matching Ends realign the stack, so a runaway
// recursion degrades the trace instead of corrupting it.
const maxOpenSpans = 32

// minRecorderSpans floors the ring capacity.
const minRecorderSpans = 64

// A Recorder is a per-goroutine flight recorder. It is NOT safe for
// concurrent use: exactly one goroutine may call Begin/End/Mark/
// TraceSince (the scheduler gives each shard worker its own). Nil is a
// valid recorder that discards everything.
type Recorder struct {
	ring    []spanRec
	next    uint64 // completed spans ever written; ring slot = next % len(ring)
	seq     uint64 // ids handed out by Begin
	stack   [maxOpenSpans]openSpan
	depth   int
	dropped uint64 // Begins lost to stack overflow
}

// NewRecorder returns a recorder holding the most recent `capacity`
// completed spans (floored at 64).
func NewRecorder(capacity int) *Recorder {
	if capacity < minRecorderSpans {
		capacity = minRecorderSpans
	}
	return &Recorder{ring: make([]spanRec, capacity)}
}

// Begin opens a span. name should be a constant string (it is stored,
// not copied); arg is an optional integer annotation (servers probed,
// phase number, …) rendered into the trace.
func (r *Recorder) Begin(name string, arg int64) {
	if r == nil {
		return
	}
	r.depth++
	if r.depth > maxOpenSpans {
		r.dropped++
		return
	}
	r.seq++
	s := &r.stack[r.depth-1]
	s.id = r.seq
	s.start = nowNanos()
	s.arg = arg
	s.name = name
}

// End closes the most recently begun span, writing it into the ring.
// An End with no matching Begin is a no-op.
func (r *Recorder) End() {
	if r == nil || r.depth == 0 {
		return
	}
	d := r.depth
	r.depth--
	if d > maxOpenSpans {
		return // the matching Begin was dropped
	}
	s := &r.stack[d-1]
	var parent uint64
	if d >= 2 {
		parent = r.stack[d-2].id
	}
	w := &r.ring[r.next%uint64(len(r.ring))]
	w.id, w.parent = s.id, parent
	w.start, w.end = s.start, nowNanos()
	w.arg = s.arg
	w.name = s.name
	r.next++
}

// A Mark is a position in a recorder's history; TraceSince(mark)
// extracts everything recorded after it. The zero Mark means "from the
// beginning".
type Mark struct{ next, dropped uint64 }

// Mark captures the recorder's current position.
func (r *Recorder) Mark() Mark {
	if r == nil {
		return Mark{}
	}
	return Mark{next: r.next, dropped: r.dropped}
}

// A Span is one node of an extracted trace tree. Times are nanoseconds
// relative to the earliest span in the trace.
type Span struct {
	Name     string  `json:"name"`
	Arg      int64   `json:"arg,omitempty"`
	StartNs  int64   `json:"startNs"`
	DurNs    int64   `json:"durNs"`
	Children []*Span `json:"children,omitempty"`
}

// A Trace is the span tree of a Capture (Capture.Tree). Dropped counts
// spans lost to ring overwrites or stack overflow between the capture's
// Mark and its extraction — the flight-recorder truncation contract: the most recent spans are
// always present, the oldest go first.
type Trace struct {
	Spans   []*Span `json:"spans"`
	Dropped int64   `json:"dropped,omitempty"`
}

// A Capture is the retained form of a trace: one flat 32-byte record per
// span and each distinct span name once, with no per-span pointers. A
// finished execution keeps its Capture for as long as its job and its
// cached response live; Tree renders the span tree only when a trace is
// actually served. Nil is a valid Capture (telemetry disabled).
type Capture struct {
	recs    []capRec // close order: every span precedes its parent
	names   []string
	dropped int64
}

// capRec is one captured span: 32 bytes.
type capRec struct {
	parent int32 // index of the enclosing span in recs, -1 at a root
	name   int32 // index into Capture.names
	arg    int64
	start  int64 // nanoseconds after the capture's earliest span
	dur    int64
}

// TraceSince captures everything recorded after m. It allocates (three
// allocations for a capture using at most 16 span names) and must be
// called off the hot path, on the recorder's own goroutine, after the
// instrumented work completes. The returned Capture is immutable and
// safe to share across goroutines.
func (r *Recorder) TraceSince(m Mark) *Capture {
	if r == nil {
		return nil
	}
	c := &Capture{dropped: int64(r.dropped - m.dropped)}
	lo := m.next
	if span := r.next - lo; span > uint64(len(r.ring)) {
		overwritten := span - uint64(len(r.ring))
		c.dropped += int64(overwritten)
		lo += overwritten
	}
	if lo == r.next {
		return c
	}
	ring := func(i int) *spanRec { return &r.ring[(lo+uint64(i))%uint64(len(r.ring))] }
	c.recs = make([]capRec, r.next-lo)
	// Intern names on the stack and keep an exact-size copy: most
	// captures are one or two spans, where a spare name slot would cost
	// more than the spans themselves.
	var nameBuf [16]string
	names := nameBuf[:0]
	minStart := int64(1<<63 - 1)
	for i := range c.recs {
		minStart = min(minStart, ring(i).start)
	}
	// Spans are written at End time, so a span's captured descendants
	// are exactly the records just before it, and its children are the
	// spans on top of the stack of not-yet-parented ones that name it.
	// The stack is threaded through the parent fields (top is its head,
	// -1 the bottom); whatever is still on it at the end is a root.
	top := int32(-1)
	for i := range c.recs {
		rec := ring(i)
		for top >= 0 && ring(int(top)).parent == rec.id {
			next := c.recs[top].parent
			c.recs[top].parent = int32(i)
			top = next
		}
		var name int32
		names, name = intern(names, rec.name)
		c.recs[i] = capRec{parent: top, name: name, arg: rec.arg,
			start: rec.start - minStart, dur: rec.end - rec.start}
		top = int32(i)
	}
	for top >= 0 {
		top, c.recs[top].parent = c.recs[top].parent, -1
	}
	c.names = append([]string(nil), names...)
	return c
}

// intern returns names with name in it, and its index. Traces use a
// handful of constant span names, so a linear scan beats a map.
func intern(names []string, name string) ([]string, int32) {
	for i, n := range names {
		if n == name {
			return names, int32(i)
		}
	}
	return append(names, name), int32(len(names))
}

// Tree renders the capture as its span tree: the JSON GET /v1/trace
// serves. It allocates every node and must be called off the hot path.
func (c *Capture) Tree() *Trace {
	if c == nil {
		return nil
	}
	tr := &Trace{Dropped: c.dropped}
	if len(c.recs) == 0 {
		return tr
	}
	// Parents follow their children in recs, so link only once every
	// node is filled in.
	nodes := make([]Span, len(c.recs))
	for i, rec := range c.recs {
		nodes[i] = Span{Name: c.names[rec.name], Arg: rec.arg, StartNs: rec.start, DurNs: rec.dur}
	}
	for i, rec := range c.recs {
		n := &nodes[i]
		if rec.parent >= 0 {
			p := &nodes[rec.parent]
			p.Children = append(p.Children, n)
		} else {
			tr.Spans = append(tr.Spans, n)
		}
	}
	sortSpans(tr.Spans)
	for i := range nodes {
		sortSpans(nodes[i].Children)
	}
	return tr
}

// sortSpans orders siblings by start time (ties by duration) so the
// rendered tree reads chronologically.
func sortSpans(s []*Span) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].StartNs != s[j].StartNs {
			return s[i].StartNs < s[j].StartNs
		}
		return s[i].DurNs < s[j].DurNs
	})
}
