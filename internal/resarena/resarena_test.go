package resarena

import "testing"

func TestIDsAreStableAndDense(t *testing.T) {
	var a Arena
	l01 := a.Link(0, 1)
	l10 := a.Link(1, 0)
	src0 := a.SrcNIC(0)
	dst0 := a.DstNIC(0)
	if l01 == l10 {
		t.Fatal("directed links share an id")
	}
	if src0 == dst0 {
		t.Fatal("src and dst NICs of one server share an id")
	}
	seen := map[int32]bool{l01: true, l10: true, src0: true, dst0: true}
	if len(seen) != 4 || int(a.next) != 4 {
		t.Fatalf("ids not dense/unique: %v, assigned=%d", seen, int(a.next))
	}
	for id := range seen {
		if id < 0 || int(id) >= int(a.next) {
			t.Fatalf("id %d outside [0, %d)", id, int(a.next))
		}
	}
	// Re-touching returns the same ids.
	if a.Link(0, 1) != l01 || a.SrcNIC(0) != src0 || a.DstNIC(0) != dst0 {
		t.Fatal("re-touch changed an id")
	}
	if int(a.next) != 4 {
		t.Fatalf("re-touch grew the arena to %d", int(a.next))
	}
}

// Growth — new switches, new servers — must preserve every prior
// assignment (the property that makes one simulator instance reusable
// across the members of a growing topology family).
func TestGrowthPreservesAssignments(t *testing.T) {
	var a Arena
	a.EnsureSwitches(3)
	a.EnsureServers(2)
	ids := map[[2]int]int32{}
	for u := 0; u < 3; u++ {
		for v := 0; v < 3; v++ {
			if u != v {
				ids[[2]int{u, v}] = a.Link(u, v)
			}
		}
	}
	nic0 := a.SrcNIC(0)
	a.Link(7, 2) // implicit switch growth
	a.DstNIC(9)  // implicit server growth
	a.EnsureSwitches(20)
	a.EnsureServers(40)
	for k, want := range ids {
		if got := a.Link(k[0], k[1]); got != want {
			t.Fatalf("link %v id changed %d -> %d after growth", k, want, got)
		}
	}
	if a.SrcNIC(0) != nic0 {
		t.Fatal("NIC id changed after growth")
	}
}
