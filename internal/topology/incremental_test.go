package topology

import (
	"testing"

	"jellyfish/internal/rng"
)

func spreadEven(switches, ports, servers int, src *rng.Source) *Topology {
	portsPer := make([]int, switches)
	serversPer := make([]int, switches)
	base, extra := servers/switches, servers%switches
	for i := range portsPer {
		portsPer[i] = ports
		serversPer[i] = base
		if i < extra {
			serversPer[i]++
		}
	}
	return JellyfishHeterogeneous(portsPer, serversPer, src)
}

// addServersSpread applies AddServerSpread count times, deriving the
// i-th step's randomness from src by absolute server index, as
// capsearch's family growth does, so growing in one call or across
// several yields the identical network. It returns how many servers were
// placed: fewer than count only when the inventory is full.
func addServersSpread(t *Topology, count int, src *rng.Source) int {
	base := t.NumServers()
	for i := 0; i < count; i++ {
		if AddServerSpread(t, src.SplitN("srv", base+i)) < 0 {
			return i
		}
	}
	return count
}

// Growing one server at a time must reproduce the spread-even server
// distribution SpreadServers-style construction uses: the i-th extra
// server lands on the lowest-index least-loaded switch.
func TestAddServerSpreadMatchesSpreadCounts(t *testing.T) {
	top := spreadEven(10, 8, 10, rng.New(3))
	addServersSpread(top, 23, rng.New(4))
	want := spreadEven(10, 8, 33, rng.New(5)) // same counts, independent wiring
	for i := range top.Servers {
		if top.Servers[i] != want.Servers[i] {
			t.Fatalf("switch %d has %d servers after growth, want %d (%v)", i, top.Servers[i], want.Servers[i], top.Servers)
		}
	}
}

// Every growth step must leave a consistent topology: port budgets
// respected, at most one dangling port (the odd free port from-scratch
// wiring also leaves), and the link count tracking the from-scratch port
// arithmetic — two servers cost one network link.
func TestAddServerSpreadConservesPorts(t *testing.T) {
	top := spreadEven(12, 10, 12, rng.New(7))
	baseLinks := top.NumLinks()
	src := rng.New(8)
	for i := 0; i < 60; i++ {
		if sw := AddServerSpread(top, src.SplitN("srv", i)); sw < 0 {
			t.Fatalf("step %d: no switch could host a server", i)
		}
		if err := top.Validate(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if free := top.TotalFreePorts(); free > 1 {
			t.Fatalf("step %d: %d dangling ports, want ≤1", i, free)
		}
		added := i + 1
		wantLinks := baseLinks - (added+1)/2
		if diff := top.NumLinks() - wantLinks; diff < -1 || diff > 1 {
			t.Fatalf("step %d: %d links, want %d±1", i, top.NumLinks(), wantLinks)
		}
	}
	if !top.Graph.Connected() {
		t.Fatal("growth disconnected the network")
	}
}

// Growth is a pure function of (topology, source, count): growing in one
// call or in several yields the identical network, because each step's
// randomness is derived by absolute server index.
func TestAddServersSpreadPurity(t *testing.T) {
	a := spreadEven(10, 8, 10, rng.New(3))
	b := a.Clone()
	addServersSpread(a, 20, rng.New(4))
	addServersSpread(b, 8, rng.New(4))
	addServersSpread(b, 12, rng.New(4))
	ae, be := a.Graph.Edges(), b.Graph.Edges()
	if len(ae) != len(be) {
		t.Fatalf("edge counts differ: %d vs %d", len(ae), len(be))
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ae[i], be[i])
		}
	}
	for i := range a.Servers {
		if a.Servers[i] != b.Servers[i] {
			t.Fatalf("switch %d server counts differ", i)
		}
	}
}

// addServersSpread reports how many servers fit when the inventory runs
// out, instead of overfilling.
func TestAddServersSpreadStopsWhenFull(t *testing.T) {
	top := spreadEven(4, 4, 4, rng.New(1))
	// 4 switches × 4 ports: capacity 3 servers/switch (one port must
	// remain... actually all 4 can go to servers once links are gone).
	placed := addServersSpread(top, 100, rng.New(2))
	if placed >= 100 {
		t.Fatalf("placed %d servers on a 16-port inventory", placed)
	}
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
}

// FailSwitches is the deterministic core of FailRandomSwitches: same
// permutation prefix, same wreckage.
func TestFailSwitchesMatchesRandom(t *testing.T) {
	a := Jellyfish(20, 8, 5, rng.New(9))
	b := a.Clone()
	failed := FailRandomSwitches(a, 0.25, rng.New(10))
	perm := rng.New(10).Perm(20)
	FailSwitches(b, perm[:5])
	if len(failed) != 5 {
		t.Fatalf("failed %d switches, want 5", len(failed))
	}
	if a.NumLinks() != b.NumLinks() || a.NumServers() != b.NumServers() {
		t.Fatalf("FailSwitches diverged from FailRandomSwitches: %v vs %v links", a.NumLinks(), b.NumLinks())
	}
	for _, sw := range failed {
		if b.Servers[sw] != 0 || b.Graph.Degree(sw) != 0 {
			t.Fatalf("switch %d not fully failed", sw)
		}
	}
}
