package flowsim

import (
	"context"
	"math"
	"testing"

	"jellyfish/internal/graph"
	"jellyfish/internal/rng"
	"jellyfish/internal/routing"
	"jellyfish/internal/topology"
	"jellyfish/internal/traffic"
)

// coupledFillReference is the round-rebuild coupled fill, kept as the
// oracle for simulateCoupled's bit-identity contract: every round it
// re-tests each live flow's active route from the first route on,
// rebuilds fcount from scratch and scans every resource twice. The
// kernel must return the same rates, bit for bit, after the same number
// of ctx polls. Call it on a Sim right after beginCall.
func (s *Sim) coupledFillReference(ctx context.Context, flows []traffic.Flow, table *routing.Table) Result {
	s.pathResIDs = s.pathResIDs[:0]
	s.pathResStart = append(s.pathResStart[:0], 0)
	s.flowPathStart = append(s.flowPathStart[:0], make([]int32, len(flows)+1)...)
	s.active = append(s.active[:0], make([]int32, len(flows))...)
	s.flowLevel = append(s.flowLevel[:0], make([]float64, len(flows))...)

	for fi := range flows {
		f := &flows[fi]
		s.active[fi] = -1
		if f.SrcSwitch == f.DstSwitch {
			s.local[fi] = true
			s.rates[fi] = 1
			s.flowPathStart[fi+1] = s.flowPathStart[fi]
			continue
		}
		paths := table.PathsFor(f.SrcSwitch, f.DstSwitch)
		for _, p := range paths {
			s.pathResIDs = s.appendPathResources(s.pathResIDs, f, p)
			s.pathResStart = append(s.pathResStart, int32(len(s.pathResIDs)))
		}
		s.flowPathStart[fi+1] = int32(len(s.pathResStart) - 1)
		if len(paths) > 0 {
			s.active[fi] = 0
		}
	}
	used := make([]float64, s.nres)
	fcount := make([]float64, s.nres)

	open := func(pi int32) bool {
		for _, r := range s.pathResIDs[s.pathResStart[pi]:s.pathResStart[pi+1]] {
			if 1-used[r] <= satEps {
				return false
			}
		}
		return true
	}

	level := 0.0
	roundCap := 4*s.nres + len(flows) + 16
	for rounds := 0; ; rounds++ {
		if rounds > roundCap {
			break
		}
		if ctx.Err() != nil {
			break
		}
		clear(fcount)
		liveFlows := 0
		for fi := range flows {
			if s.active[fi] < 0 || s.local[fi] {
				continue
			}
			first := s.flowPathStart[fi]
			if !open(first + s.active[fi]) {
				s.active[fi] = -1
				for pi := first; pi < s.flowPathStart[fi+1]; pi++ {
					if open(pi) {
						s.active[fi] = pi - first
						break
					}
				}
				if s.active[fi] < 0 {
					s.flowLevel[fi] = level
					continue
				}
			}
			liveFlows++
			pi := first + s.active[fi]
			for _, r := range s.pathResIDs[s.pathResStart[pi]:s.pathResStart[pi+1]] {
				fcount[r]++
			}
		}
		if liveFlows == 0 {
			break
		}
		minInc := -1.0
		for r := 0; r < s.nres; r++ {
			if fcount[r] == 0 {
				continue
			}
			inc := (1 - used[r]) / fcount[r]
			if minInc < 0 || inc < minInc {
				minInc = inc
			}
		}
		if minInc <= 0 {
			break
		}
		level += minInc
		for r := 0; r < s.nres; r++ {
			if fcount[r] > 0 {
				used[r] += minInc * fcount[r]
			}
		}
	}

	for fi := range flows {
		if s.local[fi] || s.flowPathStart[fi+1] == s.flowPathStart[fi] {
			continue
		}
		if s.active[fi] >= 0 {
			s.rates[fi] = level
		} else {
			s.rates[fi] = s.flowLevel[fi]
		}
	}
	clampRates(s.rates, s.local)
	return Result{FlowRate: s.rates}
}

// countingCtx counts Err polls and reports context.Canceled from its
// cancelAt-th poll onward (never when cancelAt is 0).
type countingCtx struct {
	context.Context
	polls, cancelAt int
}

func (c *countingCtx) Err() error {
	c.polls++
	if c.cancelAt > 0 && c.polls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// coupledCase is one coupled-fill input.
type coupledCase struct {
	name  string
	flows []traffic.Flow
	table *routing.Table
}

// jellyfishCoupledCase draws a permutation over an evenly spread
// Jellyfish and routes it with the named scheme.
func jellyfishCoupledCase(switches, degree, servers int, seed uint64, scheme string) coupledCase {
	ports := degree + (servers+switches-1)/switches
	top := topology.JellyfishSpread(switches, ports, servers, rng.New(seed))
	pat := traffic.RandomPermutation(top.ServerSwitches(), rng.New(seed).Split("traffic"))
	table := routing.NewCompiled(top.Graph).Table(scheme, routing.PairsForPattern(pat), rng.New(seed).Split("routes"), 1)
	return coupledCase{name: top.Name + "/" + scheme, flows: pat.Flows, table: table}
}

// handCoupledCase routes hand-written flows over g with kSP-8.
func handCoupledCase(name string, g *graph.Graph, flows []traffic.Flow) coupledCase {
	pairs := routing.PairsForPattern(&traffic.Pattern{Flows: flows})
	return coupledCase{name: name, flows: flows, table: routing.NewCompiled(g).KShortest(pairs, 8, 1)}
}

func coupledCases() []coupledCase {
	var cases []coupledCase
	for _, size := range []struct{ switches, degree, servers int }{
		{8, 3, 16},
		{20, 5, 45},
		{40, 7, 120},
		{64, 8, 250},
	} {
		for _, scheme := range []string{"ksp8", "ecmp8", "ecmp64"} {
			cases = append(cases, jellyfishCoupledCase(size.switches, size.degree, size.servers, uint64(size.switches), scheme))
		}
	}

	// Flows within one switch beside flows that cross the link.
	line := graph.New(2)
	line.AddEdge(0, 1)
	cases = append(cases, handCoupledCase("intra-switch", line, []traffic.Flow{
		{SrcServer: 0, DstServer: 1, SrcSwitch: 0, DstSwitch: 0},
		{SrcServer: 1, DstServer: 2, SrcSwitch: 0, DstSwitch: 1},
		{SrcServer: 2, DstServer: 3, SrcSwitch: 1, DstSwitch: 1},
		{SrcServer: 3, DstServer: 0, SrcSwitch: 1, DstSwitch: 0},
	}))

	// Two components: pairs across them have no route.
	split := graph.New(4)
	split.AddEdge(0, 1)
	split.AddEdge(2, 3)
	cases = append(cases, handCoupledCase("unreachable", split, []traffic.Flow{
		{SrcServer: 0, DstServer: 2, SrcSwitch: 0, DstSwitch: 2},
		{SrcServer: 1, DstServer: 3, SrcSwitch: 1, DstSwitch: 3},
		{SrcServer: 2, DstServer: 1, SrcSwitch: 2, DstSwitch: 1},
		{SrcServer: 3, DstServer: 0, SrcSwitch: 3, DstSwitch: 0},
		{SrcServer: 4, DstServer: 5, SrcSwitch: 0, DstSwitch: 1},
	}))

	// Every flow crosses the one link of a line.
	var shared []traffic.Flow
	for i := 0; i < 6; i++ {
		shared = append(shared, traffic.Flow{SrcServer: i, DstServer: 6 + i, SrcSwitch: 0, DstSwitch: 1})
	}
	cases = append(cases, handCoupledCase("line bottleneck", line, shared))

	// A 6-ring whose switch-0 servers all send to switch 3: two disjoint
	// 3-hop routes, both bottlenecks shared by every flow.
	ring := graph.New(6)
	for i := 0; i < 6; i++ {
		ring.AddEdge(i, (i+1)%6)
	}
	var across []traffic.Flow
	for i := 0; i < 5; i++ {
		across = append(across, traffic.Flow{SrcServer: i, DstServer: 5 + i, SrcSwitch: 0, DstSwitch: 3})
	}
	cases = append(cases, handCoupledCase("ring bottleneck", ring, across))

	// TestEscapeClampFreezesDeterministically's shape: two flows share a
	// source NIC, each over its own link.
	star := graph.New(3)
	star.AddEdge(0, 1)
	star.AddEdge(0, 2)
	cases = append(cases, handCoupledCase("shared source NIC", star, []traffic.Flow{
		{SrcServer: 0, DstServer: 1, SrcSwitch: 0, DstSwitch: 1},
		{SrcServer: 0, DstServer: 2, SrcSwitch: 0, DstSwitch: 2},
	}))
	return cases
}

// checkCoupledAgainstReference runs sim's MPTCP8 fill and the reference
// on one input, uncancelled and then cancelled at a spread of polls, and
// reports the first difference in rate bits or poll count.
func checkCoupledAgainstReference(t *testing.T, sim *Sim, c coupledCase) {
	t.Helper()
	want := &countingCtx{Context: context.Background()}
	ref := new(Sim)
	ref.beginCall(len(c.flows))
	wantRates := ref.coupledFillReference(want, c.flows, c.table).FlowRate

	got := sim.Simulate(c.flows, c.table, MPTCP8, nil).FlowRate
	compareRates(t, c.name+" (Simulate)", got, wantRates)
	polls := &countingCtx{Context: context.Background()}
	got = sim.SimulateContext(polls, c.flows, c.table, MPTCP8, nil).FlowRate
	compareRates(t, c.name+" (SimulateContext)", got, wantRates)
	if polls.polls != want.polls {
		t.Fatalf("%s: %d ctx polls, reference %d", c.name, polls.polls, want.polls)
	}

	for _, at := range []int{1, 2, 3, want.polls / 2, want.polls - 1, want.polls} {
		if at < 1 {
			continue
		}
		wantCtx := &countingCtx{Context: context.Background(), cancelAt: at}
		ref := new(Sim)
		ref.beginCall(len(c.flows))
		wantRates := ref.coupledFillReference(wantCtx, c.flows, c.table).FlowRate
		gotCtx := &countingCtx{Context: context.Background(), cancelAt: at}
		got := sim.SimulateContext(gotCtx, c.flows, c.table, MPTCP8, nil).FlowRate
		compareRates(t, c.name+" (cancelled)", got, wantRates)
		if gotCtx.polls != wantCtx.polls {
			t.Fatalf("%s: cancelled at poll %d: %d polls, reference %d", c.name, at, gotCtx.polls, wantCtx.polls)
		}
	}
}

func compareRates(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rates, reference %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: flow %d rate %v, reference %v", name, i, got[i], want[i])
		}
	}
}

// The coupled fill must match the round-rebuild reference bit for bit,
// with the same number of ctx polls, on generated and hand-built inputs:
// Jellyfish at four sizes under every routing scheme, intra-switch
// flows, unreachable pairs and shared bottlenecks. One Sim serves every
// case, so reuse across shapes is covered too.
func TestCoupledFillMatchesReference(t *testing.T) {
	sim := NewSim(4, 4)
	for _, c := range coupledCases() {
		checkCoupledAgainstReference(t, sim, c)
	}
}
