package topology

import (
	"testing"

	"jellyfish/internal/rng"
)

func TestPetersen(t *testing.T) {
	g := Petersen()
	if g.N() != 10 || g.M() != 15 {
		t.Fatalf("petersen n=%d m=%d, want 10, 15", g.N(), g.M())
	}
	if !g.IsRegular(3) {
		t.Fatal("petersen not 3-regular")
	}
	if d := g.Diameter(); d != 2 {
		t.Fatalf("petersen diameter = %d, want 2", d)
	}
}

func TestHoffmanSingleton(t *testing.T) {
	g := HoffmanSingleton()
	if g.N() != 50 || g.M() != 175 {
		t.Fatalf("HS n=%d m=%d, want 50, 175", g.N(), g.M())
	}
	if !g.IsRegular(7) {
		t.Fatal("HS not 7-regular")
	}
	if d := g.Diameter(); d != 2 {
		t.Fatalf("HS diameter = %d, want 2 (Moore graph)", d)
	}
	// Moore graph of degree 7, diameter 2: girth 5, so no triangles —
	// neighbors of any vertex form an independent set.
	for u := 0; u < 50; u++ {
		ns := g.Neighbors(u)
		for i, a := range ns {
			for _, b := range ns[i+1:] {
				if g.HasEdge(a, b) {
					t.Fatalf("triangle at %d: %d-%d", u, a, b)
				}
			}
		}
	}
}

func TestOptimizedRegularGraphImproves(t *testing.T) {
	src := rng.New(1)
	n, r := 60, 4
	baseline := Jellyfish(n, r, r, rng.New(1).Split("seed-graph")).Graph
	opt := OptimizedRegularGraph(n, r, 1500, src)
	if !opt.IsRegular(r) {
		t.Fatal("optimizer broke regularity")
	}
	if !opt.Connected() {
		t.Fatal("optimizer produced disconnected graph")
	}
	if opt.AllPairsStats().Mean > baseline.AllPairsStats().Mean+1e-9 {
		t.Fatalf("optimizer worsened mean path: %v > %v",
			opt.AllPairsStats().Mean, baseline.AllPairsStats().Mean)
	}
}

func TestBestKnownDispatch(t *testing.T) {
	src := rng.New(2)
	if g := BestKnownDegreeDiameter(10, 3, src); g.N() != 10 || g.Diameter() != 2 {
		t.Fatal("did not dispatch to Petersen")
	}
	if g := BestKnownDegreeDiameter(50, 7, src); g.N() != 50 || g.Diameter() != 2 {
		t.Fatal("did not dispatch to Hoffman–Singleton")
	}
	if g := BestKnownDegreeDiameter(30, 4, src); g.N() != 30 || !g.IsRegular(4) {
		t.Fatal("optimized fallback wrong shape")
	}
}

func TestDegreeDiameterTopology(t *testing.T) {
	// Paper Fig. 3 config (50, 11, 7): Hoffman–Singleton with 4 servers
	// per switch.
	src := rng.New(3)
	top := DegreeDiameterTopology(50, 11, 7, src)
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	if top.NumServers() != 50*4 {
		t.Fatalf("servers = %d, want 200", top.NumServers())
	}
	if top.FreePorts(0) != 0 {
		t.Fatalf("free ports = %d, want 0", top.FreePorts(0))
	}
}

func TestDegreeDiameterTopologyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ports < degree did not panic")
		}
	}()
	DegreeDiameterTopology(50, 5, 7, rng.New(1))
}

// The benchmark graph should have mean path length no worse than a random
// regular graph of the same parameters — that is its entire purpose.
func TestBenchmarkBeatsRandom(t *testing.T) {
	src := rng.New(4)
	hs := HoffmanSingleton()
	rr := Jellyfish(50, 7, 7, src).Graph
	if hs.AllPairsStats().Mean >= rr.AllPairsStats().Mean {
		t.Fatalf("HS mean %v not below RRG mean %v",
			hs.AllPairsStats().Mean, rr.AllPairsStats().Mean)
	}
}
