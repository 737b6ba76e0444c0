package routing

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"jellyfish/internal/graph"
	"jellyfish/internal/rng"
	"jellyfish/internal/topology"
)

func tablesEqual(t *testing.T, label string, a, b *Table) {
	t.Helper()
	if a.Kind != b.Kind {
		t.Fatalf("%s: kind %q vs %q", label, a.Kind, b.Kind)
	}
	if len(a.Paths) != len(b.Paths) {
		t.Fatalf("%s: %d pairs vs %d", label, len(a.Paths), len(b.Paths))
	}
	for pair, ap := range a.Paths {
		bp, ok := b.Paths[pair]
		if !ok {
			t.Fatalf("%s: pair %v missing", label, pair)
		}
		if len(ap) != len(bp) {
			t.Fatalf("%s: pair %v has %d vs %d paths", label, pair, len(ap), len(bp))
		}
		for i := range ap {
			if !ap[i].Equal(bp[i]) {
				t.Fatalf("%s: pair %v path %d = %v vs %v", label, pair, i, ap[i], bp[i])
			}
		}
	}
}

// A Compiled instance must produce tables byte-identical to a fresh
// instance's, on first build (cold memo), on rebuild (warm memo), and
// for pair sets that only partially overlap the memo.
func TestCompiledMatchesOneShot(t *testing.T) {
	top := topology.Jellyfish(40, 10, 6, rng.New(5))
	g := top.Graph
	var pairsA, pairsB []Pair
	for s := 0; s < 20; s++ {
		pairsA = append(pairsA, Pair{s, (s + 7) % 40}, Pair{s, (s + 13) % 40})
		pairsB = append(pairsB, Pair{s, (s + 13) % 40}, Pair{(s + 5) % 40, s})
	}

	c := NewCompiled(g)
	for round := 0; round < 2; round++ {
		for _, pairs := range [][]Pair{pairsA, pairsB} {
			tablesEqual(t, "ksp", NewCompiled(g).KShortest(pairs, 8, 1), c.KShortest(pairs, 8, 2))
			// Different k must not collide in the memo.
			tablesEqual(t, "ksp4", NewCompiled(g).KShortest(pairs, 4, 1), c.KShortest(pairs, 4, 1))
			tablesEqual(t, "ecmp", NewCompiled(g).ECMP(pairs, 8, rng.New(99), 1), c.ECMP(pairs, 8, rng.New(99), 2))
		}
	}
}

// KShortest hands out its missing pairs a destination at a time; that
// grouping must not reach the table. Every worker count and every order
// of the input pairs (repeats included, and a memo warmed by an
// overlapping set) gives the table of one engine answering pair by pair.
func TestKShortestInvariantToWorkersAndPairOrder(t *testing.T) {
	g := topology.Jellyfish(60, 10, 7, rng.New(13)).Graph
	r := rand.New(rand.NewSource(2))
	var pairs []Pair
	for i := 0; i < 150; i++ {
		// 12 destinations, so most groups hold several pairs.
		pairs = append(pairs, Pair{r.Intn(60), r.Intn(12) * 5})
	}
	pairs = append(pairs, pairs[:20]...)
	want := &Table{Paths: map[Pair][]graph.Path{}, Kind: "ksp-8"}
	eng := graph.NewKSPEngine(g)
	for _, p := range pairs {
		if _, ok := want.Paths[p]; !ok {
			want.Paths[p] = eng.Paths(p.Src, p.Dst, 8)
		}
	}
	for _, w := range []int{1, 2, 4} {
		for trial := 0; trial < 3; trial++ {
			shuffled := append([]Pair(nil), pairs...)
			r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			label := fmt.Sprintf("workers=%d trial=%d", w, trial)
			tablesEqual(t, label, want, NewCompiled(g).KShortest(shuffled, 8, w))
			warm := NewCompiled(g)
			warm.KShortest(shuffled[:len(shuffled)/3], 8, w)
			tablesEqual(t, label+" warm", want, warm.KShortest(shuffled, 8, w))
		}
	}
}

// The ECMP stream contract: per-source sampling streams are derived by
// source id from the passed src, so a compiled rebuild with the same src
// replays identical draws no matter what was built in between.
func TestCompiledECMPStreamIdentity(t *testing.T) {
	top := topology.Jellyfish(30, 8, 5, rng.New(11))
	pairs := []Pair{{0, 9}, {4, 21}, {17, 3}, {9, 0}}
	c := NewCompiled(top.Graph)
	first := c.ECMP(pairs, 8, rng.New(42), 1)
	c.KShortest(pairs, 8, 1) // unrelated interleaved work
	c.ECMP([]Pair{{2, 14}}, 64, rng.New(7), 1)
	again := c.ECMP(pairs, 8, rng.New(42), 1)
	tablesEqual(t, "ecmp-replay", first, again)
}

func TestCompiledConcurrentUse(t *testing.T) {
	top := topology.Jellyfish(30, 8, 5, rng.New(3))
	var pairs []Pair
	for s := 0; s < 30; s++ {
		pairs = append(pairs, Pair{s, (s + 11) % 30})
	}
	c := NewCompiled(top.Graph)
	want := NewCompiled(top.Graph).KShortest(pairs, 8, 1)
	done := make(chan *Table, 4)
	for i := 0; i < 4; i++ {
		go func() { done <- c.KShortest(pairs, 8, 1) }()
	}
	for i := 0; i < 4; i++ {
		tablesEqual(t, "concurrent", want, <-done)
	}
}

// Table maps each scheme name to its constructor and panics on any other
// name, naming it, instead of quietly routing a different scheme.
func TestTableSchemes(t *testing.T) {
	top := topology.Jellyfish(20, 6, 4, rng.New(8))
	pairs := []Pair{{0, 9}, {3, 14}, {7, 2}}
	c := NewCompiled(top.Graph)
	tablesEqual(t, "ecmp8", c.Table("ecmp8", pairs, rng.New(4), 1), NewCompiled(top.Graph).ECMP(pairs, 8, rng.New(4), 2))
	tablesEqual(t, "ecmp64", c.Table("ecmp64", pairs, rng.New(4), 1), NewCompiled(top.Graph).ECMP(pairs, 64, rng.New(4), 2))
	tablesEqual(t, "ksp8", c.Table("ksp8", pairs, nil, 1), NewCompiled(top.Graph).KShortest(pairs, 8, 2))
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), `"ksp4"`) {
			t.Fatalf("unknown scheme: recovered %v, want a panic naming \"ksp4\"", r)
		}
	}()
	c.Table("ksp4", pairs, nil, 1)
}
