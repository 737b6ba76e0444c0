package telemetry

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"sort"
	"testing"
	"unsafe"
)

// refTraceSince is the reference tree builder: a straight map-and-link
// construction of the span tree straight from the ring. TraceSince must
// render byte-identical JSON for every recorder history.
func refTraceSince(r *Recorder, m Mark) *Trace {
	if r == nil {
		return nil
	}
	tr := &Trace{Dropped: int64(r.dropped - m.dropped)}
	lo := m.next
	if span := r.next - lo; span > uint64(len(r.ring)) {
		overwritten := span - uint64(len(r.ring))
		tr.Dropped += int64(overwritten)
		lo += overwritten
	}
	if lo == r.next {
		return tr
	}
	// Spans are written at End time (close order): children precede
	// parents. Two passes — materialize, then link.
	nodes := make(map[uint64]*Span, r.next-lo)
	recs := make([]spanRec, 0, r.next-lo)
	minStart := int64(1<<63 - 1)
	for i := lo; i < r.next; i++ {
		rec := r.ring[i%uint64(len(r.ring))]
		recs = append(recs, rec)
		nodes[rec.id] = &Span{Name: rec.name, Arg: rec.arg, DurNs: rec.end - rec.start}
		if rec.start < minStart {
			minStart = rec.start
		}
	}
	for _, rec := range recs {
		n := nodes[rec.id]
		n.StartNs = rec.start - minStart
		if p, ok := nodes[rec.parent]; ok && rec.parent != 0 {
			p.Children = append(p.Children, n)
		} else {
			tr.Spans = append(tr.Spans, n)
		}
	}
	refSortSpans(tr.Spans)
	for _, rec := range recs {
		refSortSpans(nodes[rec.id].Children)
	}
	return tr
}

// refSortSpans orders siblings by start time, ties by duration.
func refSortSpans(s []*Span) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].StartNs != s[j].StartNs {
			return s[i].StartNs < s[j].StartNs
		}
		return s[i].DurNs < s[j].DurNs
	})
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// coarsenRing rewrites the ring's timestamps onto a coarse grid, so
// siblings tie on start and duration far more often than on the real
// clock: the tie order is part of the rendered bytes.
func coarsenRing(r *Recorder, rng *rand.Rand) {
	for i := range r.ring {
		s := int64(rng.IntN(4))
		r.ring[i].start, r.ring[i].end = s, s+int64(rng.IntN(3))
	}
}

// TestTraceMatchesReference drives recorders through random Begin/End/
// Mark histories — ring overflow, nesting past maxOpenSpans, marks taken
// mid-history, extraction with spans still open — and requires the
// trace's JSON to equal the reference builder's, byte for byte.
func TestTraceMatchesReference(t *testing.T) {
	names := []string{"op", "probe", "trial", "solve", "phase", "dual", "step"}
	for seed := uint64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x7e1e))
		r := NewRecorder(minRecorderSpans + rng.IntN(3)*minRecorderSpans)
		marks := []Mark{{}}
		maxDepth := 4 + rng.IntN(2*maxOpenSpans)
		steps := 50 + rng.IntN(600)
		for range steps {
			switch x := rng.IntN(10); {
			case x < 5 && r.depth < maxDepth:
				r.Begin(names[rng.IntN(len(names))], int64(rng.IntN(5)))
			case x < 9:
				r.End()
			default:
				marks = append(marks, r.Mark())
			}
		}
		// Close part of what is still open: the rest stays open at
		// extraction, so its children surface as roots.
		for n := rng.IntN(r.depth + 1); n > 0; n-- {
			r.End()
		}
		if seed%2 == 1 {
			coarsenRing(r, rng)
		}
		for _, m := range marks {
			want := mustMarshal(t, refTraceSince(r, m))
			got := mustMarshal(t, r.TraceSince(m).Tree())
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d, mark %+v: trace differs from the reference\n got  %s\n want %s", seed, m, got, want)
			}
		}
	}
}

// A retained span costs one 32-byte record; the pin keeps a field added
// to capRec from quietly doubling every cached trace.
func TestCaptureRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(capRec{}); n > 32 {
		t.Fatalf("capRec is %d bytes, want at most 32", n)
	}
}

// Capturing a full ring costs a fixed handful of allocations — the
// Capture, its records and its name table — however many spans it holds.
func TestCaptureAllocs(t *testing.T) {
	r := NewRecorder(1024)
	names := []string{"op", "probe", "trial", "solve"}
	r.Begin(names[0], 0)
	for i := range 1023 {
		r.Begin(names[1+i%3], int64(i))
		r.End()
	}
	r.End()
	if n := len(r.TraceSince(Mark{}).recs); n != 1024 {
		t.Fatalf("captured %d spans, want 1024", n)
	}
	if n := testing.AllocsPerRun(20, func() { _ = r.TraceSince(Mark{}) }); n != 3 {
		t.Fatalf("TraceSince of 1024 spans allocated %v times, want 3", n)
	}
}
