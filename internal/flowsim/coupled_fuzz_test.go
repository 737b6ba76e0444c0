package flowsim

import "testing"

// FuzzCoupledFill checks the coupled MPTCP8 fill against the round-rebuild
// reference on generated Jellyfish instances: rates bit for bit and ctx
// polls, uncancelled and cancelled (checkCoupledAgainstReference). Low
// degrees leave the graph disconnected, so unreachable pairs come up too.
func FuzzCoupledFill(f *testing.F) {
	// Seed corpus: the oracle test's Jellyfish sizes under every scheme,
	// plus a 2-switch line and a sparse ring-like graph.
	for _, c := range []struct {
		seed             uint64
		switches, degree uint8
		servers          uint16
	}{
		{8, 8, 3, 16},
		{20, 20, 5, 45},
		{40, 40, 7, 120},
		{64, 64, 8, 250},
		{1, 2, 1, 8},
		{5, 6, 2, 12},
	} {
		for scheme := uint8(0); scheme < 3; scheme++ {
			f.Add(c.seed, c.switches, c.degree, c.servers, scheme)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, switches, degree uint8, servers uint16, scheme uint8) {
		// Wrap each size into its range, leaving in-range values as they
		// are: 2–64 switches, degree 1–min(switches-1, 10), 1–4 servers
		// per switch on average.
		sw := 2 + (int(switches)+61)%63
		m := min(sw-1, 10)
		deg := 1 + (int(degree)+m-1)%m
		srv := 1 + (int(servers)+4*sw-1)%(4*sw)
		name := [...]string{"ksp8", "ecmp8", "ecmp64"}[scheme%3]
		checkCoupledAgainstReference(t, NewSim(sw, srv), jellyfishCoupledCase(sw, deg, srv, seed, name))
	})
}
