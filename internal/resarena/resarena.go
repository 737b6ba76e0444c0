// Package resarena assigns stable dense integer ids to the transport
// simulators' resources: per-server source/destination NICs and directed
// switch-switch links. flowsim and packetsim used to rebuild a
// map[[2]int]int registry of these on every Simulate call; an Arena is
// the compiled replacement — a flat switch×switch id matrix plus flat
// per-server NIC tables, assigned on first touch and stable for the
// lifetime of the owning simulator instance.
//
// Stability across calls is the load-bearing property: ids persist even
// when the next call simulates a different (possibly rewired) topology,
// so a reused simulator never confuses one resource with another, and
// the simulators' results are independent of id numbering by
// construction (their kernels take minima and per-resource sums, never
// order-sensitive reductions over ids). Stale ids from links a rewired
// topology no longer has are harmless: nothing touches them.
package resarena

// Grow returns buf with length n, reusing capacity. Growth carries 25%
// headroom: the simulators' per-call sizes jitter (hashed path picks
// change incidence totals between calls on one instance), so exact-fit
// growth — like internal/mcf's resize helpers use for its stable solver
// shapes — would keep reallocating at every new high-water mark instead
// of converging to zero steady-state allocations. Contents are
// unspecified.
func Grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, n+n/4+64)
	}
	return buf[:n]
}

// An Arena allocates resource ids. The zero value is ready to use.
type Arena struct {
	n    int     // switch-id bound of the link matrix
	link []int32 // n×n, row-major; -1 = unassigned
	nic  []int32 // 2 ids per server (src, dst); -1 = unassigned
	next int32
}

// EnsureSwitches grows the link matrix to cover switch ids < n,
// preserving existing assignments. O(n²) when it grows; a no-op
// afterwards.
func (a *Arena) EnsureSwitches(n int) {
	if n <= a.n {
		return
	}
	grown := make([]int32, n*n)
	for i := range grown {
		grown[i] = -1
	}
	for u := 0; u < a.n; u++ {
		copy(grown[u*n:u*n+a.n], a.link[u*a.n:(u+1)*a.n])
	}
	a.n, a.link = n, grown
}

// EnsureServers grows the NIC tables to cover server ids < s.
func (a *Arena) EnsureServers(s int) {
	if 2*s <= len(a.nic) {
		return
	}
	grown := make([]int32, 2*s)
	for i := range grown {
		grown[i] = -1
	}
	copy(grown, a.nic)
	a.nic = grown
}

// Link returns the id of the directed link u→v, assigning one on first
// touch (and growing the matrix if either endpoint is new).
func (a *Arena) Link(u, v int) int32 {
	if u >= a.n || v >= a.n {
		m := u
		if v > m {
			m = v
		}
		a.EnsureSwitches(m + 1)
	}
	idx := u*a.n + v
	if a.link[idx] < 0 {
		a.link[idx] = a.next
		a.next++
	}
	return a.link[idx]
}

// SrcNIC returns the id of server s's sending NIC.
func (a *Arena) SrcNIC(s int) int32 { return a.nicAt(2 * s) }

// DstNIC returns the id of server s's receiving NIC.
func (a *Arena) DstNIC(s int) int32 { return a.nicAt(2*s + 1) }

func (a *Arena) nicAt(slot int) int32 {
	if slot >= len(a.nic) {
		a.EnsureServers(slot/2 + 1)
	}
	if a.nic[slot] < 0 {
		a.nic[slot] = a.next
		a.next++
	}
	return a.nic[slot]
}
