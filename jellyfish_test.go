package jellyfish

import (
	"context"
	"errors"
	"testing"
)

// Nonsensical configurations at the public boundary must come back as
// typed *InvalidConfigError values — the planning service maps these to
// HTTP 400 — never as panics or a silent 0.
func TestCapacitySearchInvalidConfigs(t *testing.T) {
	cases := []struct {
		name string
		cfg  CapacitySearch
	}{
		{"zero switches", CapacitySearch{Switches: 0, Ports: 8}},
		{"negative switches", CapacitySearch{Switches: -3, Ports: 8}},
		{"zero ports", CapacitySearch{Switches: 10, Ports: 0}},
		{"one port", CapacitySearch{Switches: 10, Ports: 1}},
		{"negative trials", CapacitySearch{Switches: 10, Ports: 8, Trials: -1}},
		{"slack out of range", CapacitySearch{Switches: 10, Ports: 8, Slack: 1.5}},
		{"negative workers", CapacitySearch{Switches: 10, Ports: 8, Workers: -2}},
	}
	for _, tc := range cases {
		got, err := tc.cfg.Run()
		var ice *InvalidConfigError
		if !errors.As(err, &ice) {
			t.Fatalf("%s: Run() = (%d, %v), want *InvalidConfigError", tc.name, got, err)
		}
		if ice.Op != "CapacitySearch" || ice.Field == "" || ice.Error() == "" {
			t.Fatalf("%s: malformed error %+v", tc.name, ice)
		}
		if err := tc.cfg.Validate(); !errors.As(err, &ice) {
			t.Fatalf("%s: Validate() = %v, want *InvalidConfigError", tc.name, err)
		}
	}
}

// A search over a cached family — including one reused by consecutive
// searches, the planning service's access pattern — must return exactly
// what a fresh Run does: SearchFamily is pure in the inventory.
func TestRunOnFamilyMatchesRun(t *testing.T) {
	cs := CapacitySearch{Switches: 10, Ports: 4, Trials: 1, Seed: 11, Workers: 1}
	fresh, err := cs.Run()
	if err != nil {
		t.Fatal(err)
	}
	fam, err := cs.NewFamily()
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		got, err := cs.RunOnFamily(fam, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != fresh {
			t.Fatalf("round %d: RunOnFamily = %d, Run = %d", round, got, fresh)
		}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cs.RunOnFamilyContext(cancelled, fam, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context returned %v, want context.Canceled", err)
	}
	bad := CapacitySearch{Switches: 0, Ports: 4}
	if _, err := bad.NewFamily(); err == nil {
		t.Fatal("NewFamily accepted an invalid inventory")
	}
}

func TestMaxServersAtFullThroughputInvalidTrials(t *testing.T) {
	for _, trials := range []int{0, -2} {
		got, err := MaxServersAtFullThroughput(10, 8, trials, 1)
		var ice *InvalidConfigError
		if !errors.As(err, &ice) || got != 0 {
			t.Fatalf("trials=%d: got (%d, %v), want typed invalid-config error", trials, got, err)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Switches: 0, Ports: 8, NetworkDegree: 4},
		{Switches: 10, Ports: 0, NetworkDegree: 0},
		{Switches: 10, Ports: 8, NetworkDegree: -1},
		{Switches: 10, Ports: 8, NetworkDegree: 9},   // degree > ports
		{Switches: 10, Ports: 24, NetworkDegree: 10}, // degree >= switches
	}
	for i, cfg := range bad {
		var ice *InvalidConfigError
		if err := cfg.Validate(); !errors.As(err, &ice) {
			t.Fatalf("case %d: Validate() = %v, want *InvalidConfigError", i, err)
		}
	}
	if err := (Config{Switches: 10, Ports: 8, NetworkDegree: 4}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestNewBasic(t *testing.T) {
	net := New(Config{Switches: 50, Ports: 12, NetworkDegree: 6, Seed: 1})
	if net.NumSwitches() != 50 || net.NumServers() != 300 {
		t.Fatalf("got %d switches, %d servers", net.NumSwitches(), net.NumServers())
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	if !net.Graph.Connected() {
		t.Fatal("disconnected")
	}
}

func TestNewDeterministic(t *testing.T) {
	a := New(Config{Switches: 30, Ports: 8, NetworkDegree: 4, Seed: 9})
	b := New(Config{Switches: 30, Ports: 8, NetworkDegree: 4, Seed: 9})
	ea, eb := a.Graph.Edges(), b.Graph.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("same seed, different topologies")
		}
	}
}

func TestNewFatTree(t *testing.T) {
	ft := NewFatTree(6)
	if ft.NumServers() != 54 || ft.NumSwitches() != 45 {
		t.Fatalf("k=6 fat-tree: %d servers, %d switches", ft.NumServers(), ft.NumSwitches())
	}
}

func TestExpandKeepsProperties(t *testing.T) {
	net := New(Config{Switches: 20, Ports: 12, NetworkDegree: 4, Seed: 2})
	Expand(net, 5, 12, 4, 3)
	if net.NumSwitches() != 25 {
		t.Fatalf("switches = %d", net.NumSwitches())
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestExpandSwitchOnly(t *testing.T) {
	net := New(Config{Switches: 20, Ports: 12, NetworkDegree: 4, Seed: 2})
	servers := net.NumServers()
	ExpandSwitchOnly(net, 3, 12, 4)
	if net.NumServers() != servers {
		t.Fatal("switch-only expansion changed servers")
	}
}

func TestFailRandomLinks(t *testing.T) {
	net := New(Config{Switches: 30, Ports: 10, NetworkDegree: 6, Seed: 4})
	m := net.NumLinks()
	killed := FailRandomLinks(net, 0.1, 5)
	if killed != m/10 || net.NumLinks() != m-killed {
		t.Fatalf("killed %d of %d, remaining %d", killed, m, net.NumLinks())
	}
}

func TestOptimalThroughputBounds(t *testing.T) {
	// Overprovisioned: 1 server per switch, degree 5.
	rich := New(Config{Switches: 20, Ports: 6, NetworkDegree: 5, Seed: 6})
	if lam := OptimalThroughput(rich, 7); lam < 0.9 {
		t.Fatalf("overprovisioned throughput = %v, want ≈1", lam)
	}
	// Heavily oversubscribed: 9 servers per switch, degree 3.
	poor := New(Config{Switches: 20, Ports: 12, NetworkDegree: 3, Seed: 6})
	if lam := OptimalThroughput(poor, 7); lam > 0.75 {
		t.Fatalf("oversubscribed throughput = %v, want well below 1", lam)
	}
}

func TestSupportsFullThroughput(t *testing.T) {
	rich := New(Config{Switches: 20, Ports: 6, NetworkDegree: 5, Seed: 8})
	if !SupportsFullThroughput(rich, 2, 0.03, 9) {
		t.Fatal("overprovisioned network failed full-throughput check")
	}
	poor := New(Config{Switches: 20, Ports: 12, NetworkDegree: 3, Seed: 8})
	if SupportsFullThroughput(poor, 2, 0.03, 9) {
		t.Fatal("oversubscribed network passed full-throughput check")
	}
}

func TestSpreadServers(t *testing.T) {
	net := SpreadServers(10, 8, 33, 11)
	if net.NumServers() != 33 {
		t.Fatalf("servers = %d, want 33", net.NumServers())
	}
	for i := 0; i < 10; i++ {
		if s := net.Servers[i]; s < 3 || s > 4 {
			t.Fatalf("switch %d has %d servers, want 3 or 4", i, s)
		}
	}
}

func TestSpreadServersPanicsWhenOverfull(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on overfull spread")
		}
	}()
	SpreadServers(2, 4, 100, 1)
}

// Fig. 2(c) mechanism at tiny scale: jellyfish built from the same
// equipment as a k=6 fat-tree supports at least as many servers at full
// capacity.
func TestMaxServersBeatsFatTree(t *testing.T) {
	k := 6
	ftServers := k * k * k / 4  // 54
	ftSwitches := 5 * k * k / 4 // 45
	got, err := MaxServersAtFullThroughput(ftSwitches, k, 2, 13)
	if err != nil {
		t.Fatal(err)
	}
	if got < ftServers {
		t.Fatalf("jellyfish max servers = %d, fat-tree has %d", got, ftServers)
	}
}

// Regression: the capacity search must verify its lower bound. With
// 2-port switches every switch has one network link, so the "random
// regular graph" is a perfect matching — switch pairs with no path
// between them — and random-permutation traffic is unroutable even at one
// server per switch. The search used to report lo = switches as supported
// without ever checking it.
func TestMaxServersInfeasibleLowerBound(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		if got, err := MaxServersAtFullThroughput(4, 2, 2, seed); err != nil || got != 0 {
			t.Fatalf("seed %d: max servers = %d on a disconnected matching, want 0", seed, got)
		}
	}
}

func TestMeanPathAndDiameter(t *testing.T) {
	net := New(Config{Switches: 40, Ports: 10, NetworkDegree: 6, Seed: 14})
	if m := MeanPathLength(net); m <= 1 || m > 4 {
		t.Fatalf("mean path = %v", m)
	}
	if d := Diameter(net); d < 2 || d > 5 {
		t.Fatalf("diameter = %d", d)
	}
}

func TestPacketLevelThroughput(t *testing.T) {
	net := New(Config{Switches: 30, Ports: 8, NetworkDegree: 5, Seed: 15})
	res := PacketLevelThroughput(net, KSP8, MPTCP8Subflows, 16)
	if res.MeanThroughput <= 0 || res.MeanThroughput > 1 {
		t.Fatalf("mean throughput = %v", res.MeanThroughput)
	}
	if res.Fairness <= 0 || res.Fairness > 1 {
		t.Fatalf("fairness = %v", res.Fairness)
	}
	if len(res.FlowThroughputs) != net.NumServers() {
		t.Fatalf("flows = %d, want %d", len(res.FlowThroughputs), net.NumServers())
	}
}

func TestRoutingSchemeOrdering(t *testing.T) {
	// Table 1 mechanism: on Jellyfish at the paper's ~90% load point,
	// kSP-8 with MPTCP clearly beats ECMP-8 with MPTCP, because ECMP's
	// shortest-only paths leave many links unused (Fig. 9). (At heavy 2:1
	// oversubscription the effect genuinely reverses — longer paths cost
	// capacity — so the load level matters, as in the paper.)
	net := New(Config{Switches: 60, Ports: 12, NetworkDegree: 9, Seed: 17})
	ecmp := PacketLevelThroughput(net, ECMP8, MPTCP8Subflows, 18).MeanThroughput
	ksp := PacketLevelThroughput(net, KSP8, MPTCP8Subflows, 18).MeanThroughput
	if ksp <= ecmp {
		t.Fatalf("kSP %v not above ECMP %v", ksp, ecmp)
	}
}

func TestLinkPathCounts(t *testing.T) {
	net := New(Config{Switches: 30, Ports: 8, NetworkDegree: 5, Seed: 19})
	counts := LinkPathCounts(net, ECMP8, 20)
	if len(counts) != 2*net.NumLinks() {
		t.Fatalf("counts = %d, want %d directed links", len(counts), 2*net.NumLinks())
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] < counts[i-1] {
			t.Fatal("counts not sorted")
		}
	}
}

func TestBisectionAPIs(t *testing.T) {
	if b := NormalizedBisectionBound(720, 24, 12); b <= 0 {
		t.Fatalf("bound = %v", b)
	}
	servers, r := ServersAtFullBisection(720, 24)
	if servers <= 0 || r <= 0 {
		t.Fatalf("servers=%d r=%d", servers, r)
	}
	if cost := EquipmentForServers(1000, 24); cost <= 0 {
		t.Fatalf("cost = %d", cost)
	}
	net := New(Config{Switches: 30, Ports: 10, NetworkDegree: 6, Seed: 21})
	if mb := MeasuredBisection(net, 22); mb <= 0 || mb > 1 {
		t.Fatalf("measured bisection = %v", mb)
	}
}

func TestRoutingSchemeStrings(t *testing.T) {
	if ECMP8.String() != "ECMP-8" || ECMP64.String() != "ECMP-64" || KSP8.String() != "8-shortest-paths" {
		t.Fatal("scheme names wrong")
	}
}
