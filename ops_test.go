package jellyfish

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
)

// Sequential cross-goroutine use of one evaluator is race-free and
// bit-identical to single-goroutine use: the guard's acquire/release
// publishes the carried chain across the handoff. (Run under -race in CI.)
func TestWhatIfEvaluatorSequentialCrossGoroutine(t *testing.T) {
	base := New(Config{Switches: 24, Ports: 10, NetworkDegree: 6, Seed: 31})
	degraded := base.Clone()
	FailRandomLinks(degraded, 0.1, 32)

	single := NewWhatIfEvaluator(1)
	want := []float64{single.OptimalThroughput(base, 33), single.OptimalThroughput(degraded, 33)}

	ev := NewWhatIfEvaluator(1)
	got := make([]float64, 2)
	handoff := make(chan struct{})
	done := make(chan struct{})
	go func() {
		got[0] = ev.OptimalThroughput(base, 33)
		close(handoff)
	}()
	go func() {
		<-handoff
		got[1] = ev.OptimalThroughput(degraded, 33)
		close(done)
	}()
	<-done
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: cross-goroutine chain %v != single-goroutine chain %v", i, got, want)
		}
	}
}

// Overlapping evaluations must panic — loudly, deterministically — rather
// than silently corrupt the warm chain.
func TestWhatIfEvaluatorConcurrentUsePanics(t *testing.T) {
	ev := NewWhatIfEvaluator(1)
	net := New(Config{Switches: 12, Ports: 8, NetworkDegree: 4, Seed: 1})
	ev.busy.Store(true) // simulate an evaluation in flight
	defer ev.busy.Store(false)
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping OptimalThroughput did not panic")
		}
	}()
	ev.OptimalThroughput(net, 2)
}

// Hammering one evaluator from many goroutines must never race (the -race
// build is the assertion): every call either completes under the guard or
// panics; no interleaving touches the chain unsynchronized.
func TestWhatIfEvaluatorGuardUnderContention(t *testing.T) {
	ev := NewWhatIfEvaluator(1)
	net := New(Config{Switches: 16, Ports: 8, NetworkDegree: 4, Seed: 5})
	const goroutines = 8
	var wg sync.WaitGroup
	var completed, panicked atomic.Int64
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if recover() != nil {
					panicked.Add(1)
				}
			}()
			<-start
			ev.OptimalThroughput(net, 7)
			completed.Add(1)
		}()
	}
	close(start)
	wg.Wait()
	if completed.Load()+panicked.Load() != goroutines {
		t.Fatalf("%d completed + %d panicked != %d calls", completed.Load(), panicked.Load(), goroutines)
	}
	if completed.Load() == 0 {
		t.Fatal("every call panicked; at least the first acquirer must complete")
	}
	// The evaluator must remain usable: the guard was released by every
	// completed call, and the chain still evaluates deterministically.
	after := ev.OptimalThroughput(net, 7)
	if after <= 0 || after > 1 {
		t.Fatalf("post-contention evaluation out of range: %v", after)
	}
}

// State/SetState round-trip: resuming a chain from a checkpoint is
// bit-identical to continuing the chain that produced it — the cache
// equivalence the planning service's determinism rests on.
func TestWhatIfEvaluatorStateCheckpointResume(t *testing.T) {
	base := New(Config{Switches: 24, Ports: 10, NetworkDegree: 6, Seed: 41})
	step1 := base.Clone()
	FailRandomLinks(step1, 0.08, 42)
	step2 := step1.Clone()
	Expand(step2, 2, 10, 6, 43)

	full := NewWhatIfEvaluator(1)
	lam0 := full.OptimalThroughput(base, 44)
	checkpoint := full.State()
	if checkpoint == nil {
		t.Fatal("no state after an evaluation")
	}
	lam1 := full.OptimalThroughput(step1, 44)
	lam2 := full.OptimalThroughput(step2, 44)

	resumed := NewWhatIfEvaluator(1)
	resumed.SetState(checkpoint)
	if got := resumed.OptimalThroughput(step1, 44); got != lam1 {
		t.Fatalf("resumed step1 throughput %v != chained %v", got, lam1)
	}
	if got := resumed.OptimalThroughput(step2, 44); got != lam2 {
		t.Fatalf("resumed step2 throughput %v != chained %v", got, lam2)
	}
	_ = lam0
}

func TestBlueprintRoundTripPublic(t *testing.T) {
	net := New(Config{Switches: 25, Ports: 10, NetworkDegree: 6, Seed: 1})
	var buf bytes.Buffer
	if err := WriteBlueprint(net, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBlueprint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumServers() != net.NumServers() || got.NumLinks() != net.NumLinks() {
		t.Fatalf("round trip changed topology: %s vs %s", got, net)
	}
}

func TestPlanRewiringPublic(t *testing.T) {
	net := New(Config{Switches: 20, Ports: 12, NetworkDegree: 6, Seed: 2})
	grown := net.Clone()
	Expand(grown, 2, 12, 6, 3)
	plan := PlanRewiring(net, grown)
	if plan.Moves() == 0 {
		t.Fatal("expansion produced no cable moves")
	}
	// Rewiring must be bounded by the added ports (§4.2).
	if len(plan.Add) > 2*6 {
		t.Fatalf("added %d cables for 2 switches of degree 6", len(plan.Add))
	}
}

func TestMiswiringWorkflow(t *testing.T) {
	blueprint := New(Config{Switches: 40, Ports: 10, NetworkDegree: 6, Seed: 4})
	built := blueprint.Clone()
	n := SimulateMiswirings(built, 3, 5)
	if n != 3 {
		t.Fatalf("applied %d miswirings, want 3", n)
	}
	found := DetectMiswirings(blueprint, built)
	if len(found) != 6 {
		t.Fatalf("detected %d divergences for 3 swaps, want 6", len(found))
	}
	// §6.1: a few miswirings leave just another random graph — validate it
	// still carries traffic at essentially the same rate.
	orig := OptimalThroughput(blueprint, 6)
	after := OptimalThroughput(built, 6)
	if after < orig*0.95 {
		t.Fatalf("3 miswirings cost too much throughput: %v -> %v", orig, after)
	}
}

func TestEdgeConnectivityPublic(t *testing.T) {
	net := New(Config{Switches: 30, Ports: 10, NetworkDegree: 6, Seed: 7})
	if c := EdgeConnectivity(net); c != 6 {
		t.Fatalf("edge connectivity = %d, want 6 (r-connected, §4.3)", c)
	}
}

func TestExpansionQuality(t *testing.T) {
	// Jellyfish graphs are near-Ramanujan expanders — the structural fact
	// behind the paper's bandwidth results (§3 footnote 5).
	net := New(Config{Switches: 100, Ports: 9, NetworkDegree: 8, Seed: 8})
	lambda2, opt := ExpansionQuality(net, 8)
	if lambda2 > opt*1.25 {
		t.Fatalf("lambda2 = %v far above Ramanujan bound %v", lambda2, opt)
	}
	if lambda2 <= 0 {
		t.Fatalf("lambda2 = %v", lambda2)
	}
}

func TestCriticalLinks(t *testing.T) {
	net := New(Config{Switches: 30, Ports: 10, NetworkDegree: 6, Seed: 9})
	if bs := CriticalLinks(net); len(bs) != 0 {
		t.Fatalf("healthy jellyfish has critical links: %v", bs)
	}
	// Degrade until bridges appear; they must be real cut edges.
	FailRandomLinks(net, 0.6, 10)
	for _, b := range CriticalLinks(net) {
		net.Graph.RemoveEdge(b.U, b.V)
		if net.Graph.BFS(b.U)[b.V] >= 0 {
			t.Fatalf("reported critical link %v is not a cut edge", b)
		}
		net.Graph.AddEdge(b.U, b.V)
	}
}
