package topology

import "testing"

func TestFatTreeShape(t *testing.T) {
	for _, k := range []int{4, 6, 8, 14} {
		ft := FatTree(k)
		if got, want := ft.NumSwitches(), 5*k*k/4; got != want {
			t.Fatalf("k=%d: switches = %d, want %d", k, got, want)
		}
		if got, want := ft.NumServers(), k*k*k/4; got != want {
			t.Fatalf("k=%d: servers = %d, want %d", k, got, want)
		}
		if got, want := ft.NumLinks(), k*k*k/2; got != want {
			t.Fatalf("k=%d: links = %d, want %d", k, got, want)
		}
		if err := ft.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !ft.Graph.Connected() {
			t.Fatalf("k=%d: fat-tree disconnected", k)
		}
	}
}

func TestFatTreePortBudgetExact(t *testing.T) {
	// Every fat-tree switch uses exactly k ports (full port utilization).
	k := 6
	ft := FatTree(k)
	for i := 0; i < ft.NumSwitches(); i++ {
		if ft.FreePorts(i) != 0 {
			t.Fatalf("switch %d has %d free ports, want 0", i, ft.FreePorts(i))
		}
	}
}

func TestFatTreeK14Matches686Servers(t *testing.T) {
	// The paper's packet-level comparison uses the 686-server fat-tree,
	// which is k=14.
	ft := FatTree(14)
	if ft.NumServers() != 686 {
		t.Fatalf("k=14 servers = %d, want 686", ft.NumServers())
	}
	if ft.NumSwitches() != 245 {
		t.Fatalf("k=14 switches = %d, want 245", ft.NumSwitches())
	}
}

func TestFatTreeDiameterIsSix(t *testing.T) {
	// Switch-level diameter 4 = server-level diameter 6 (Fig. 1).
	ft := FatTree(4)
	if d := ft.Graph.Diameter(); d != 4 {
		t.Fatalf("switch diameter = %d, want 4", d)
	}
}

func TestFatTreeServerPlacement(t *testing.T) {
	k := 4
	ft := FatTree(k)
	// Only edge switches (first k²/2 IDs) carry servers.
	numEdge := k * k / 2
	for i := 0; i < ft.NumSwitches(); i++ {
		want := 0
		if i < numEdge {
			want = k / 2
		}
		if ft.Servers[i] != want {
			t.Fatalf("switch %d servers = %d, want %d", i, ft.Servers[i], want)
		}
	}
}

func TestFatTreePanicsOnOddK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FatTree(5) did not panic")
		}
	}()
	FatTree(5)
}

// Edge and aggregation switches wire only within their pod; only the
// aggregation-core layer crosses pods.
func TestFatTreePod(t *testing.T) {
	k := 8
	ft := FatTree(k)
	for _, e := range ft.Graph.Edges() {
		if e.V < k*k && fatTreeContainer(k, e.U) != fatTreeContainer(k, e.V) {
			t.Fatalf("link %v joins pods %d and %d below the core", e, fatTreeContainer(k, e.U), fatTreeContainer(k, e.V))
		}
	}
}

func TestFatTreeLocalLinkFraction(t *testing.T) {
	// §6.3 gives 0.5(1+1/k) under the pod-per-container layout with core
	// switches divided equally among pods; cross-check for k=4.
	k := 4
	ft := FatTree(k)
	local := 0
	for _, e := range ft.Graph.Edges() {
		if fatTreeContainer(k, e.U) == fatTreeContainer(k, e.V) {
			local++
		}
	}
	got := float64(local) / float64(ft.NumLinks())
	if want := 0.5 * (1 + 1/float64(k)); got != want {
		t.Fatalf("local fraction = %v, formula says %v", got, want)
	}
}

// fatTreeContainer returns the container of switch id under the paper's
// massive-scale layout (§6.3): each pod is one container, and the (k/2)²
// core switches are divided equally among the k pods.
func fatTreeContainer(k, id int) int {
	half := k / 2
	switch {
	case id < k*half: // edge switches, half per pod
		return id / half
	case id < k*k: // aggregation switches, half per pod
		return (id - k*half) / half
	}
	return ((id - k*k) / max(k/4, 1)) % k
}
