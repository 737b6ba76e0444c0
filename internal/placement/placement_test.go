package placement

import (
	"math"
	"testing"

	"jellyfish/internal/rng"
	"jellyfish/internal/topology"
)

func TestTwoLayerShape(t *testing.T) {
	top := TwoLayerJellyfish(4, 10, 8, 5, 0.4, rng.New(1))
	if top.NumSwitches() != 40 {
		t.Fatalf("switches = %d, want 40", top.NumSwitches())
	}
	if top.NumServers() != 40*3 {
		t.Fatalf("servers = %d, want 120", top.NumServers())
	}
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	if !top.Graph.Connected() {
		t.Fatal("2-layer jellyfish disconnected")
	}
}

func TestTwoLayerLocalFractionTracksParameter(t *testing.T) {
	for _, lf := range []float64{0.0, 0.4, 0.8} {
		top := TwoLayerJellyfish(5, 12, 10, 6, lf, rng.New(2))
		got := LocalLinkFraction(top.Graph, 12)
		if math.Abs(got-lf) > 0.15 {
			t.Fatalf("localFrac=%v: measured %v", lf, got)
		}
	}
}

func TestTwoLayerFullyLocalDisconnects(t *testing.T) {
	// localFrac=1 gives isolated containers — verify we detect that
	// (degree capped below r when container too small is also exercised).
	top := TwoLayerJellyfish(3, 8, 8, 4, 1.0, rng.New(3))
	for s := 0; s < top.NumSwitches(); s++ {
		for v, d := range top.Graph.BFS(s) {
			if reached, local := d >= 0, Container(v, 8) == Container(s, 8); reached != local {
				t.Fatalf("switch %d reaches %d: %v, same container: %v; want 3 isolated containers", s, v, reached, local)
			}
		}
	}
}

func TestTwoLayerLocalDegreeCappedBySize(t *testing.T) {
	// Container of 4 switches cannot host local degree > 3.
	top := TwoLayerJellyfish(4, 4, 10, 6, 1.0, rng.New(4))
	for i := 0; i < top.NumSwitches(); i++ {
		localDeg := 0
		for _, v := range top.Graph.Neighbors(i) {
			if Container(v, 4) == Container(i, 4) {
				localDeg++
			}
		}
		if localDeg > 3 {
			t.Fatalf("switch %d local degree %d > 3", i, localDeg)
		}
	}
}

func TestTwoLayerPanicsOnBadFraction(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad localFrac did not panic")
		}
	}()
	TwoLayerJellyfish(2, 4, 6, 3, 1.5, rng.New(1))
}

func TestContainer(t *testing.T) {
	if Container(0, 10) != 0 || Container(9, 10) != 0 || Container(10, 10) != 1 {
		t.Fatal("Container mapping wrong")
	}
}

func TestGlobalLinksCrossContainers(t *testing.T) {
	top := TwoLayerJellyfish(4, 10, 8, 5, 0.4, rng.New(5))
	spc := 10
	crossing := 0
	for _, e := range top.Graph.Edges() {
		if Container(e.U, spc) != Container(e.V, spc) {
			crossing++
		}
	}
	if crossing == 0 {
		t.Fatal("no cross-container links with localFrac=0.4")
	}
}

func TestPlanCablesGrid(t *testing.T) {
	top := topology.Jellyfish(36, 8, 4, rng.New(6))
	rep := Layout{RackPitch: 1.0}.PlanCables(top)
	if rep.Cables != top.NumLinks() {
		t.Fatalf("cables = %d, want %d", rep.Cables, top.NumLinks())
	}
	if rep.TotalMeters <= 0 || rep.MeanMeters <= 0 {
		t.Fatalf("lengths not positive: %+v", rep)
	}
	if rep.MaxMeters < rep.MeanMeters {
		t.Fatal("max < mean")
	}
}

func TestSwitchClusterShortensCables(t *testing.T) {
	top := topology.Jellyfish(100, 8, 4, rng.New(7))
	grid := Layout{RackPitch: 1.2}.PlanCables(top)
	cluster := Layout{RackPitch: 1.2, SwitchCluster: true}.PlanCables(top)
	if cluster.TotalMeters >= grid.TotalMeters {
		t.Fatalf("cluster layout not shorter: %v >= %v", cluster.TotalMeters, grid.TotalMeters)
	}
	// §6.2: with a central switch-cluster, everything is electrical.
	if cluster.OpticalCables != 0 {
		t.Fatalf("cluster layout needs %d optical cables, want 0", cluster.OpticalCables)
	}
}

func TestPlanCablesEmptyGraph(t *testing.T) {
	top := topology.Jellyfish(5, 4, 2, rng.New(8))
	topology.RemoveRandomLinks(top, 1.0, rng.New(9))
	rep := Layout{}.PlanCables(top)
	if rep.Cables != 0 || rep.TotalMeters != 0 || rep.MeanMeters != 0 {
		t.Fatalf("empty graph report: %+v", rep)
	}
}

// Fig. 14's mechanism at small scale: restricting about half of the links
// to be local costs only a few percent of throughput-relevant structure;
// we check the cheap proxy (mean path length) rises only modestly.
func TestLocalityCostsLittlePathLength(t *testing.T) {
	free := TwoLayerJellyfish(5, 16, 10, 6, 0.0, rng.New(10))
	half := TwoLayerJellyfish(5, 16, 10, 6, 0.5, rng.New(10))
	fm := free.Graph.AllPairsStats().Mean
	hm := half.Graph.AllPairsStats().Mean
	if hm > fm*1.25 {
		t.Fatalf("50%% locality inflated mean path too much: %v -> %v", fm, hm)
	}
}
