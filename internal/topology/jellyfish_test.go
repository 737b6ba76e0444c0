package topology

import (
	"testing"

	"jellyfish/internal/rng"
)

func TestJellyfishBasicShape(t *testing.T) {
	src := rng.New(1)
	top := Jellyfish(20, 12, 4, src)
	if top.NumSwitches() != 20 {
		t.Fatalf("switches = %d, want 20", top.NumSwitches())
	}
	if top.NumServers() != 20*8 {
		t.Fatalf("servers = %d, want 160", top.NumServers())
	}
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	// At most one unmatched network port across the whole network (§3).
	if free := top.TotalFreePorts(); free > 1 {
		t.Fatalf("total free ports = %d, want <= 1", free)
	}
}

func TestJellyfishRegularity(t *testing.T) {
	// n·r even: perfect r-regular matching expected.
	src := rng.New(2)
	top := Jellyfish(30, 10, 6, src)
	g := top.Graph
	if !g.IsRegular(6) {
		t.Fatal("graph not 6-regular")
	}
	if g.M() != 30*6/2 {
		t.Fatalf("edges = %d, want 90", g.M())
	}
}

func TestJellyfishOddDegreeSum(t *testing.T) {
	// n·r odd: exactly one switch must end with a single free port.
	src := rng.New(3)
	top := Jellyfish(15, 8, 5, src)
	deficit := 0
	for i := 0; i < 15; i++ {
		d := 5 - top.Graph.Degree(i)
		if d < 0 {
			t.Fatalf("switch %d over degree: %d", i, top.Graph.Degree(i))
		}
		deficit += d
	}
	if deficit != 1 {
		t.Fatalf("total degree deficit = %d, want 1", deficit)
	}
}

func TestJellyfishConnected(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		top := Jellyfish(50, 8, 4, rng.New(seed))
		if !top.Graph.Connected() {
			t.Fatalf("seed %d: jellyfish disconnected", seed)
		}
	}
}

func TestJellyfishDeterministic(t *testing.T) {
	a := Jellyfish(40, 10, 5, rng.New(7))
	b := Jellyfish(40, 10, 5, rng.New(7))
	ea, eb := a.Graph.Edges(), b.Graph.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
	c := Jellyfish(40, 10, 5, rng.New(8))
	same := true
	ec := c.Graph.Edges()
	for i := range ea {
		if ea[i] != ec[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestJellyfishPanicsOnBadParams(t *testing.T) {
	for _, tc := range []struct{ n, k, r int }{
		{10, 4, 5}, // r > k
		{4, 10, 5}, // r >= n
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Jellyfish(%d,%d,%d) did not panic", tc.n, tc.k, tc.r)
				}
			}()
			Jellyfish(tc.n, tc.k, tc.r, rng.New(1))
		}()
	}
}

func TestJellyfishHeterogeneous(t *testing.T) {
	// 10 legacy 8-port switches (degree 4) plus 2 newer 12-port switches
	// (degree 8) — the paper's heterogeneous-expansion scenario (§4.2).
	ports := []int{8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 12, 12}
	servers := []int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4}
	top := JellyfishHeterogeneous(ports, servers, rng.New(5))
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	if top.NumServers() != 48 {
		t.Fatalf("servers = %d, want 48", top.NumServers())
	}
	// High-port switches should carry more network links.
	if top.Graph.Degree(10) <= top.Graph.Degree(0) {
		t.Fatalf("12-port switch degree %d not above 8-port degree %d",
			top.Graph.Degree(10), top.Graph.Degree(0))
	}
	if free := top.TotalFreePorts(); free > 1 {
		t.Fatalf("free ports = %d, want <= 1", free)
	}
}

func TestExpandJellyfishPreservesInvariants(t *testing.T) {
	src := rng.New(11)
	top := Jellyfish(20, 12, 4, src)
	before := top.NumServers()
	ExpandJellyfish(top, 10, 12, 4, src.Split("grow"))
	if top.NumSwitches() != 30 {
		t.Fatalf("switches = %d, want 30", top.NumSwitches())
	}
	if top.NumServers() != before+10*8 {
		t.Fatalf("servers = %d, want %d", top.NumServers(), before+10*8)
	}
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	if !top.Graph.Connected() {
		t.Fatal("expanded topology disconnected")
	}
	// Each expanded switch fills to r or r-1 network ports.
	for i := 20; i < 30; i++ {
		if d := top.Graph.Degree(i); d < 3 || d > 4 {
			t.Fatalf("new switch %d degree = %d, want 3 or 4", i, d)
		}
	}
}

func TestExpandJellyfishOneAtATime(t *testing.T) {
	src := rng.New(13)
	top := Jellyfish(12, 6, 3, src)
	for step := 0; step < 20; step++ {
		ExpandJellyfish(top, 1, 6, 3, src.SplitN("step", step))
		if err := top.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !top.Graph.Connected() {
			t.Fatalf("step %d: disconnected", step)
		}
	}
	if top.NumSwitches() != 32 {
		t.Fatalf("switches = %d, want 32", top.NumSwitches())
	}
}

func TestExpandSwitchOnlyAddsNoServers(t *testing.T) {
	src := rng.New(17)
	top := Jellyfish(20, 12, 4, src)
	servers := top.NumServers()
	ExpandJellyfishSwitchOnly(top, 5, 12, src.Split("grow"))
	if top.NumServers() != servers {
		t.Fatal("switch-only expansion changed server count")
	}
	for i := 20; i < 25; i++ {
		if top.Servers[i] != 0 {
			t.Fatalf("new switch %d has servers", i)
		}
		if d := top.Graph.Degree(i); d < 11 {
			t.Fatalf("new switch %d degree = %d, want >= 11", i, d)
		}
	}
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveRandomLinks(t *testing.T) {
	src := rng.New(19)
	top := Jellyfish(30, 10, 6, src)
	m := top.NumLinks()
	killed := RemoveRandomLinks(top, 0.2, src.Split("fail"))
	if killed != m/5 {
		t.Fatalf("killed = %d, want %d", killed, m/5)
	}
	if top.NumLinks() != m-killed {
		t.Fatalf("links = %d, want %d", top.NumLinks(), m-killed)
	}
}

func TestRemoveAllLinks(t *testing.T) {
	src := rng.New(23)
	top := Jellyfish(10, 6, 3, src)
	RemoveRandomLinks(top, 1.0, src.Split("fail"))
	if top.NumLinks() != 0 {
		t.Fatalf("links = %d after full failure, want 0", top.NumLinks())
	}
}

// Paper §4.1: Jellyfish mean path length beats the fat-tree built with the
// same equipment. Check at the paper's smallest illustration scale.
func TestJellyfishShorterPathsThanFatTree(t *testing.T) {
	ft := FatTree(8) // 80 switches, 128 servers
	jf := Jellyfish(80, 8, 4, rng.New(31))
	fstats := ft.SwitchPathStats()
	jstats := jf.SwitchPathStats()
	if jstats.Mean >= fstats.Mean {
		t.Fatalf("jellyfish mean path %v not below fat-tree %v", jstats.Mean, fstats.Mean)
	}
}

func TestRandomEdgeUniform(t *testing.T) {
	src := rng.New(37)
	top := Jellyfish(10, 6, 3, src)
	counts := map[[2]int]int{}
	trials := 20000
	for i := 0; i < trials; i++ {
		e, ok := randomEdge(top.Graph, src)
		if !ok {
			t.Fatal("randomEdge failed on non-empty graph")
		}
		counts[[2]int{e.U, e.V}]++
	}
	m := top.Graph.M()
	want := float64(trials) / float64(m)
	for e, c := range counts {
		if float64(c) < want*0.7 || float64(c) > want*1.3 {
			t.Fatalf("edge %v sampled %d times, want ≈%.0f", e, c, want)
		}
	}
	if len(counts) != m {
		t.Fatalf("sampled %d distinct edges, graph has %d", len(counts), m)
	}
}

func TestFailRandomSwitches(t *testing.T) {
	src := rng.New(41)
	top := Jellyfish(40, 10, 6, src)
	servers := top.NumServers()
	failed := FailRandomSwitches(top, 0.25, src.Split("fail"))
	if len(failed) != 10 {
		t.Fatalf("failed %d switches, want 10", len(failed))
	}
	for _, sw := range failed {
		if top.Graph.Degree(sw) != 0 {
			t.Fatalf("failed switch %d still has links", sw)
		}
		if top.Servers[sw] != 0 {
			t.Fatalf("failed switch %d still has servers", sw)
		}
	}
	if top.NumServers() != servers-10*4 {
		t.Fatalf("servers = %d, want %d", top.NumServers(), servers-40)
	}
	for i := 1; i < len(failed); i++ {
		if failed[i] <= failed[i-1] {
			t.Fatal("failed IDs not sorted")
		}
	}
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFailRandomSwitchesNone(t *testing.T) {
	src := rng.New(43)
	top := Jellyfish(20, 8, 4, src)
	m := top.NumLinks()
	if got := FailRandomSwitches(top, 0, src.Split("fail")); len(got) != 0 {
		t.Fatalf("failed %d switches with frac=0", len(got))
	}
	if top.NumLinks() != m {
		t.Fatal("frac=0 changed links")
	}
}

// Property: jellyfish construction respects invariants across a sweep of
// random parameters.
func TestJellyfishPropertySweep(t *testing.T) {
	src := rng.New(47)
	for trial := 0; trial < 40; trial++ {
		n := 5 + src.Intn(60)
		k := 4 + src.Intn(12)
		r := 2 + src.Intn(k-2)
		if r >= n {
			r = n - 1
		}
		if r < 2 {
			continue
		}
		top := Jellyfish(n, k, r, src.SplitN("topo", trial))
		if err := top.Validate(); err != nil {
			t.Fatalf("n=%d k=%d r=%d: %v", n, k, r, err)
		}
		for v := 0; v < n; v++ {
			if d := top.Graph.Degree(v); d > r {
				t.Fatalf("n=%d k=%d r=%d: switch %d degree %d exceeds r", n, k, r, v, d)
			}
		}
		// The matcher leaves at most one free port when a perfect matching
		// exists (n·r even); always at most r free in pathological cases.
		deficit := 0
		for i := 0; i < n; i++ {
			deficit += r - top.Graph.Degree(i)
		}
		if n*r%2 == 0 && deficit > 2 {
			t.Fatalf("n=%d k=%d r=%d: deficit %d", n, k, r, deficit)
		}
		if r >= 3 && !top.Graph.Connected() {
			t.Fatalf("n=%d k=%d r=%d: disconnected", n, k, r)
		}
	}
}
