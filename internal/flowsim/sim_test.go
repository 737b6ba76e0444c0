package flowsim

import (
	"testing"

	"jellyfish/internal/parallel"
	"jellyfish/internal/rng"
	"jellyfish/internal/routing"
	"jellyfish/internal/topology"
	"jellyfish/internal/traffic"
)

// instance bundles one simulation input for the reuse tests.
type instance struct {
	flows []traffic.Flow
	table *routing.Table
}

func jellyfishInstance(switches, ports, deg int, seed uint64, ksp bool) instance {
	top := topology.Jellyfish(switches, ports, deg, rng.New(seed))
	pat := traffic.RandomPermutation(top.ServerSwitches(), rng.New(seed+1))
	pairs := routing.PairsForPattern(pat)
	var table *routing.Table
	if ksp {
		table = routing.NewCompiled(top.Graph).KShortest(pairs, 8, 1)
	} else {
		table = routing.NewCompiled(top.Graph).ECMP(pairs, 8, rng.New(seed+2), 1)
	}
	return instance{flows: pat.Flows, table: table}
}

// One Sim driven across a sequence of different instances — different
// topologies, route tables, protocols — must reproduce the one-shot
// results bit for bit: resource identity is positional (server id,
// directed switch pair), never call-history-dependent.
func TestSimReuseMatchesOneShot(t *testing.T) {
	instances := []instance{
		jellyfishInstance(20, 6, 3, 100, false),
		jellyfishInstance(30, 10, 7, 200, true),
		jellyfishInstance(20, 6, 3, 100, false), // repeat of the first
		jellyfishInstance(25, 8, 5, 300, true),
	}
	sim := NewSim(4, 4) // deliberately undersized: growth must be safe
	for round := 0; round < 2; round++ {
		for ii, in := range instances {
			for _, proto := range []Protocol{TCP1, TCP8, MPTCP8} {
				want := new(Sim).Simulate(in.flows, in.table, proto, rng.New(9))
				got := sim.Simulate(in.flows, in.table, proto, rng.New(9))
				if len(got.FlowRate) != len(want.FlowRate) {
					t.Fatalf("round %d instance %d %v: %d rates, want %d", round, ii, proto, len(got.FlowRate), len(want.FlowRate))
				}
				for i := range want.FlowRate {
					if got.FlowRate[i] != want.FlowRate[i] {
						t.Fatalf("round %d instance %d %v flow %d: reuse %v != one-shot %v",
							round, ii, proto, i, got.FlowRate[i], want.FlowRate[i])
					}
				}
			}
		}
	}
}

// The steady-state zero-allocation pin, the analogue of the MCF kernel's
// TestPhaseLoopZeroAllocs: after one warm-up call per protocol, repeated
// Simulate calls on a compiled instance allocate nothing.
func TestTransportZeroAllocs(t *testing.T) {
	in := jellyfishInstance(30, 10, 7, 42, true)
	sim := NewSim(30, len(in.flows))
	for _, proto := range []Protocol{TCP1, TCP8, MPTCP8} {
		src := rng.New(5)
		sim.Simulate(in.flows, in.table, proto, src) // warm up growth
		allocs := testing.AllocsPerRun(20, func() {
			sim.Simulate(in.flows, in.table, proto, src)
		})
		if allocs != 0 {
			t.Fatalf("%v: %v allocs per steady-state Simulate, want 0", proto, allocs)
		}
	}
}

// The random-stream contract (package comment): MPTCP8 consumes no
// randomness — its result is a pure function of (flows, table) — while
// the hashed-subflow protocols do consume src. Callers split dead "sim"
// streams for MPTCP8; this pin guarantees those splits stay dead, so no
// future change can silently shift every derived stream.
func TestMPTCPIgnoresSource(t *testing.T) {
	in := jellyfishInstance(30, 10, 7, 7, true)
	a := new(Sim).Simulate(in.flows, in.table, MPTCP8, rng.New(1))
	b := new(Sim).Simulate(in.flows, in.table, MPTCP8, rng.New(999))
	c := new(Sim).Simulate(in.flows, in.table, MPTCP8, nil)
	for i := range a.FlowRate {
		if a.FlowRate[i] != b.FlowRate[i] || a.FlowRate[i] != c.FlowRate[i] {
			t.Fatalf("flow %d: MPTCP8 rate depends on src (%v / %v / %v)", i, a.FlowRate[i], b.FlowRate[i], c.FlowRate[i])
		}
	}
	// And the contract is meaningful: TCP8 does consume the stream.
	x := new(Sim).Simulate(in.flows, in.table, TCP8, rng.New(1))
	y := new(Sim).Simulate(in.flows, in.table, TCP8, rng.New(999))
	same := true
	for i := range x.FlowRate {
		if x.FlowRate[i] != y.FlowRate[i] {
			same = false
		}
	}
	if same {
		t.Fatal("TCP8 results identical under different seeds — hashing stopped consuming src?")
	}
}

// Regression for the filling loop's escape hatches: if a round ends
// without saturating any resource (or with no fillable resource at all)
// while subflows are still live, the exit must freeze them at a rate
// their resources can actually carry — deterministically — instead of
// crediting the full fill level across an oversubscribed shared NIC.
// The loop state is crafted directly (the hatches are unreachable from
// well-formed instances by construction).
func TestEscapeClampFreezesDeterministically(t *testing.T) {
	// Two subflows sharing one source NIC (resource 0), each with its own
	// link: the shared-NIC shape from the contract.
	s := NewSim(4, 4)
	s.beginCall(2)
	f := traffic.Flow{SrcServer: 0, DstServer: 1, SrcSwitch: 0, DstSwitch: 1}
	g := traffic.Flow{SrcServer: 0, DstServer: 2, SrcSwitch: 0, DstSwitch: 2}
	s.subFlow = append(s.subFlow[:0], 0, 1)
	s.subResStart = append(s.subResStart[:0], 0)
	s.subResIDs = s.appendPathResources(s.subResIDs[:0], &f, []int{0, 1})
	s.subResStart = append(s.subResStart, int32(len(s.subResIDs)))
	s.subResIDs = s.appendPathResources(s.subResIDs, &g, []int{0, 2})
	s.subResStart = append(s.subResStart, int32(len(s.subResIDs)))
	s.frozen = append(s.frozen[:0], false, false)
	s.subLevel = append(s.subLevel[:0], 0, 0)
	s.resetKernel()

	// Simulate a loop that exited the hatch after crediting level 0.8 to
	// both subflows with the shared NIC already oversubscribed to 1.6.
	nic := s.dense[s.arena.SrcNIC(0)]
	s.used[nic] = 1.6
	s.clampUnfrozenSubflows(0.8, 2)

	for si := 0; si < 2; si++ {
		if !s.frozen[si] {
			t.Fatalf("subflow %d left unfrozen by the escape path", si)
		}
		if got, want := s.subLevel[si], 0.8/1.6; got != want {
			t.Fatalf("subflow %d frozen at %v, want %v (level scaled by NIC overuse)", si, got, want)
		}
	}
	// A clean exit (remaining == 0) must not touch anything.
	s.subLevel[0], s.subLevel[1] = 0.3, 0.4
	s.clampUnfrozenSubflows(9, 0)
	if s.subLevel[0] != 0.3 || s.subLevel[1] != 0.4 {
		t.Fatal("clamp modified state on a clean exit")
	}
}

// Concurrent reuse across parallel workers: each worker slot owns one Sim
// (parallel.ForEachWorker's scratch-exclusivity contract) while all share
// one route table and flow slice. Under -race this pins that the kernel
// touches nothing but its own instance; in any mode it pins that results
// are independent of which worker computed which trial.
func TestConcurrentSimReuseAcrossWorkers(t *testing.T) {
	in := jellyfishInstance(25, 8, 5, 60, true)
	const trials = 24
	want := make([]float64, trials)
	oneSim := NewSim(25, len(in.flows))
	for i := 0; i < trials; i++ {
		want[i] = oneSim.Simulate(in.flows, in.table, TCP8, rng.New(uint64(i))).Mean()
	}
	for _, workers := range []int{2, 4, 8} {
		sims := make([]*Sim, workers)
		for i := range sims {
			sims[i] = NewSim(25, len(in.flows))
		}
		got := parallel.MapWorker(workers, trials, func(worker, i int) float64 {
			return sims[worker].Simulate(in.flows, in.table, TCP8, rng.New(uint64(i))).Mean()
		})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d trial %d: %v != serial %v", workers, i, got[i], want[i])
			}
		}
	}
}

// A reused Sim must hand back rate buffers that are stable until the next
// call — and only until then (the documented aliasing contract).
func TestSimResultAliasing(t *testing.T) {
	in := jellyfishInstance(20, 6, 3, 50, true)
	sim := NewSim(20, len(in.flows))
	first := sim.Simulate(in.flows, in.table, MPTCP8, nil)
	snapshot := append([]float64(nil), first.FlowRate...)
	second := sim.Simulate(in.flows, in.table, MPTCP8, nil)
	for i := range snapshot {
		if second.FlowRate[i] != snapshot[i] {
			t.Fatalf("identical inputs produced different rates on reuse (flow %d)", i)
		}
	}
	if &first.FlowRate[0] != &second.FlowRate[0] {
		t.Fatal("expected the documented buffer reuse; Sim allocated a fresh rate slice")
	}
}
