// Package flowsim is the flow-level transport simulator standing in for the
// MPTCP packet simulator used in §5 of the paper (DESIGN.md §8 documents the
// substitution). Long-lived TCP and MPTCP flows converge to approximately
// max-min fair rates on their paths; flowsim computes that fixed point
// directly by progressive filling over three resource classes:
//
//   - every directed switch-switch link (capacity 1 NIC-rate per direction),
//   - every source server NIC (capacity 1, shared by a flow's subflows),
//   - every destination server NIC (capacity 1).
//
// Protocol models:
//
//   - TCP1: one subflow per flow; the path is chosen by hashing the flow
//     onto its route set (random pick), as an ECMP switch would. Max-min
//     fairness at connection granularity.
//   - TCP8: eight parallel connections per server pair, each independently
//     hashed onto the route set — collisions waste path diversity exactly
//     as they do in the packet simulator. Max-min at connection
//     granularity (8 connections = 8 entities).
//   - MPTCP8: coupled multipath — the flow is one entity that grows on the
//     shortest of its routes that still has residual capacity, spills onto
//     alternates as links saturate, and stops only when every route is
//     blocked. This captures what coupled congestion control achieves in
//     equilibrium: traffic concentrates where capacity is, and congested
//     long paths carry (almost) nothing, so extra k-shortest paths help
//     and never hurt.
//
// The hot entry point is the compiled instance: build one Sim, call
// Simulate on it repeatedly; every internal array is reused across calls
// (the arena id mapping is invalidated by generation stamp, never
// cleared) and the steady-state call allocates nothing
// (TestTransportZeroAllocs pins 0 allocs/op). The package-level Simulate
// is the one-shot convenience form.
//
// Random-stream contract: src is consumed ONLY for subflow path hashing,
// i.e. by TCP1 and TCP8. MPTCP8 is a pure function of (flows, table) — its
// path set is the route table itself, in table order — and must stay that
// way: callers pin results under split streams, so introducing randomness
// into the coupled model would silently shift every derived stream.
// MPTCP8 callers may pass src = nil (TestMPTCPIgnoresSource pins this).
package flowsim

import (
	"context"
	"fmt"

	"jellyfish/internal/resarena"
	"jellyfish/internal/rng"
	"jellyfish/internal/routing"
	"jellyfish/internal/traffic"
)

// Protocol selects the transport model.
type Protocol int

const (
	// TCP1 is a single TCP connection per server pair.
	TCP1 Protocol = iota
	// TCP8 is eight independent TCP connections per server pair.
	TCP8
	// MPTCP8 is multipath TCP with eight coupled subflows.
	MPTCP8
)

// String names the protocol like the paper's Table 1 rows.
func (p Protocol) String() string {
	switch p {
	case TCP1:
		return "TCP 1 flow"
	case TCP8:
		return "TCP 8 flows"
	case MPTCP8:
		return "MPTCP 8 subflows"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Subflows returns the number of subflows the protocol opens per flow.
func (p Protocol) Subflows() int {
	if p == TCP1 {
		return 1
	}
	return 8
}

// SimSource owns the random-stream contract at call sites: it derives the
// "sim" split that seeds subflow path hashing for the protocols that
// consume it, and returns nil for MPTCP8, which consumes no randomness —
// so no caller ever splits a dead stream that future changes could
// silently begin consuming. Pass the result straight to Simulate.
func SimSource(src *rng.Source, proto Protocol) *rng.Source {
	if proto == MPTCP8 {
		return nil
	}
	return src.Split("sim")
}

// Result reports per-flow throughputs (in server NIC units, ∈ [0,1]).
type Result struct {
	FlowRate []float64 // indexed like the input flow slice
}

// Mean returns the average per-flow (= per-server, under permutation
// traffic) throughput.
func (r Result) Mean() float64 {
	if len(r.FlowRate) == 0 {
		return 0
	}
	var sum float64
	for _, x := range r.FlowRate {
		sum += x
	}
	return sum / float64(len(r.FlowRate))
}

const satEps = 1e-12

// A Sim is a compiled, reusable simulator instance. It owns a resource
// arena (stable integer ids for NICs and directed links) and every piece
// of kernel scratch; repeated Simulate calls reuse all of it. Each call
// remaps the resources it actually touches onto dense call-local ids —
// stale mappings are invalidated by generation stamp, never cleared — so
// the filling kernels run over contiguous arrays and, after one warm-up
// call on a given instance shape, Simulate performs zero steady-state
// allocations.
//
// A Sim is NOT safe for concurrent use — give each worker goroutine its
// own (the experiment harness threads one per parallel worker slot). A
// single Sim may be reused across different topologies and route tables,
// including rewired members of an incremental topology family: resource
// identity is keyed by (server id, directed switch pair), never by call
// history, and results are bit-identical to a fresh instance
// (TestSimReuseMatchesOneShot pins this).
type Sim struct {
	arena resarena.Arena

	// Arena id → dense call-local id, valid where gen == curGen.
	gen    []uint32
	dense  []int32
	curGen uint32
	nres   int // dense resources of the current call

	// Per-resource kernel state, indexed by dense id in [0, nres).
	used   []float64
	count  []int32   // uncoupled filling: unfrozen subflows on resource
	fcount []float64 // coupled filling: active flows on resource
	act    []int32   // uncoupled: dense ids with count > 0, compacted

	// Uncoupled (TCP1/TCP8) compile output: subflow → resource CSR.
	subFlow     []int32
	subResStart []int32
	subResIDs   []int32
	frozen      []bool
	subLevel    []float64 // fill level at which the subflow froze

	// Resource → subflow CSR, indexed by dense id.
	resSubStart []int32
	resSubFill  []int32
	resSubIDs   []int32

	// Coupled (MPTCP8) compile output: flow → paths → resources CSR.
	flowPathStart []int32
	pathResStart  []int32
	pathResIDs    []int32
	active        []int32
	flowLevel     []float64

	rates []float64
	local []bool
}

// NewSim returns a Sim pre-sized for the given switch and server counts.
// Both are lower bounds — the arena grows on demand — so a Sim built for
// one topology family member serves every member.
func NewSim(switches, servers int) *Sim {
	s := &Sim{}
	s.arena.EnsureSwitches(switches)
	s.arena.EnsureServers(servers)
	return s
}

// Simulate computes per-flow throughputs for the given flows over the
// route table. Flows whose endpoints share a switch run at full NIC rate;
// flows with no route (disconnected) get rate 0.
//
// The returned Result aliases the instance's rate buffer: it is valid
// until the next Simulate call on this Sim. Callers that retain rates
// across calls must copy them. src may be nil for MPTCP8 (see the
// package comment's random-stream contract).
func (s *Sim) Simulate(flows []traffic.Flow, table *routing.Table, proto Protocol, src *rng.Source) Result {
	return s.SimulateContext(context.Background(), flows, table, proto, src)
}

// SimulateContext is Simulate with cancellation: ctx is polled once per
// filling round, and once ctx.Err() is non-nil the simulation stops
// early with partial rates. Callers that cancel must discard the Result
// (the service checks ctx.Err() after every kernel call). While ctx is
// live, results are byte-identical to Simulate; the poll itself
// allocates nothing.
//
//jellyvet:hotpath
func (s *Sim) SimulateContext(ctx context.Context, flows []traffic.Flow, table *routing.Table, proto Protocol, src *rng.Source) Result {
	s.beginCall(len(flows))
	if proto == MPTCP8 {
		return s.simulateCoupled(ctx, flows, table)
	}
	return s.simulateSubflows(ctx, flows, table, proto, src)
}

// Simulate is the one-shot form: it builds a throwaway Sim, so the result
// buffer is not shared and the call costs the full compile. Use a Sim for
// repeated simulation.
func Simulate(flows []traffic.Flow, table *routing.Table, proto Protocol, src *rng.Source) Result {
	return new(Sim).Simulate(flows, table, proto, src)
}

// beginCall starts a new generation and sizes the per-flow buffers.
//
//jellyvet:hotpath
func (s *Sim) beginCall(flows int) {
	s.curGen++
	if s.curGen == 0 {
		clear(s.gen)
		s.curGen = 1
	}
	s.nres = 0
	s.rates = resarena.Grow(s.rates, flows)
	s.local = resarena.Grow(s.local, flows)
	for i := range s.rates {
		s.rates[i] = 0
	}
	for i := range s.local {
		s.local[i] = false
	}
}

// touch maps an arena id to its dense call-local id, assigning the next
// one on first touch of the current call.
//
//jellyvet:hotpath
func (s *Sim) touch(r int32) int32 {
	for int(r) >= len(s.gen) {
		s.gen = append(s.gen, 0)     //jellyvet:allow hotpath -- grows Sim-owned scratch reused across calls; steady state is zero-alloc (TestTransportZeroAllocs)
		s.dense = append(s.dense, 0) //jellyvet:allow hotpath -- grows Sim-owned scratch reused across calls; steady state is zero-alloc (TestTransportZeroAllocs)
	}
	if s.gen[r] != s.curGen {
		s.gen[r] = s.curGen
		s.dense[r] = int32(s.nres)
		s.nres++
	}
	return s.dense[r]
}

// resetKernel zero-fills the dense per-resource state after compile (the
// loops below compile to memclr; nres is the registered-resource count of
// exactly this call, so nothing stale survives).
//
//jellyvet:hotpath
func (s *Sim) resetKernel() {
	s.used = resarena.Grow(s.used, s.nres)
	s.count = resarena.Grow(s.count, s.nres)
	s.fcount = resarena.Grow(s.fcount, s.nres)
	for i := range s.used {
		s.used[i] = 0
	}
	for i := range s.count {
		s.count[i] = 0
	}
	for i := range s.fcount {
		s.fcount[i] = 0
	}
}

// appendPathResources appends the dense resource ids of one routed
// subflow — source NIC, destination NIC, then the directed links along
// the path — to dst.
//
//jellyvet:hotpath
func (s *Sim) appendPathResources(dst []int32, f *traffic.Flow, p []int) []int32 {
	dst = append(dst, s.touch(s.arena.SrcNIC(f.SrcServer))) //jellyvet:allow hotpath -- grows Sim-owned scratch reused across calls; steady state is zero-alloc (TestTransportZeroAllocs)
	dst = append(dst, s.touch(s.arena.DstNIC(f.DstServer))) //jellyvet:allow hotpath -- grows Sim-owned scratch reused across calls; steady state is zero-alloc (TestTransportZeroAllocs)
	for i := 0; i+1 < len(p); i++ {
		dst = append(dst, s.touch(s.arena.Link(p[i], p[i+1]))) //jellyvet:allow hotpath -- grows Sim-owned scratch reused across calls; steady state is zero-alloc (TestTransportZeroAllocs)
	}
	return dst
}

// simulateSubflows models uncoupled TCP: each connection is pinned to one
// hashed route and max-min filling runs at connection granularity. The
// filling is saturation-driven: each round advances every live connection
// by the bottleneck increment, then revisits only the subflows touching a
// resource that just saturated (via the resource→subflow adjacency)
// instead of rescanning the whole subflow population; resources with no
// live subflows are compacted out of the scan set as they drain.
//
//jellyvet:hotpath
func (s *Sim) simulateSubflows(ctx context.Context, flows []traffic.Flow, table *routing.Table, proto Protocol, src *rng.Source) Result {
	s.subFlow = s.subFlow[:0]
	s.subResIDs = s.subResIDs[:0]
	s.subResStart = append(s.subResStart[:0], 0) //jellyvet:allow hotpath -- grows Sim-owned scratch reused across calls; steady state is zero-alloc (TestTransportZeroAllocs)

	for fi := range flows {
		f := &flows[fi]
		if f.SrcSwitch == f.DstSwitch {
			s.local[fi] = true
			s.rates[fi] = 1
			continue
		}
		paths := table.PathsFor(f.SrcSwitch, f.DstSwitch)
		if len(paths) == 0 {
			continue
		}
		for k := 0; k < proto.Subflows(); k++ {
			p := paths[src.Intn(len(paths))]         // ECMP-style hash per connection
			s.subFlow = append(s.subFlow, int32(fi)) //jellyvet:allow hotpath -- grows Sim-owned scratch reused across calls; steady state is zero-alloc (TestTransportZeroAllocs)
			s.subResIDs = s.appendPathResources(s.subResIDs, f, p)
			s.subResStart = append(s.subResStart, int32(len(s.subResIDs))) //jellyvet:allow hotpath -- grows Sim-owned scratch reused across calls; steady state is zero-alloc (TestTransportZeroAllocs)
		}
	}
	s.resetKernel()

	nsub := len(s.subFlow)
	s.frozen = resarena.Grow(s.frozen, nsub)
	s.subLevel = resarena.Grow(s.subLevel, nsub)
	for si := range s.frozen {
		s.frozen[si] = false
	}
	for si := range s.subLevel {
		s.subLevel[si] = 0
	}
	// Incidence counts, then the resource→subflow CSR (lists in subflow
	// order) and the initial active-resource set.
	for _, r := range s.subResIDs {
		s.count[r]++
	}
	s.resSubStart = resarena.Grow(s.resSubStart, s.nres+1)
	s.resSubFill = resarena.Grow(s.resSubFill, s.nres)
	s.act = s.act[:0]
	s.resSubStart[0] = 0
	for r := 0; r < s.nres; r++ {
		s.resSubStart[r+1] = s.resSubStart[r] + s.count[r]
		s.resSubFill[r] = 0
		if s.count[r] > 0 {
			s.act = append(s.act, int32(r)) //jellyvet:allow hotpath -- grows Sim-owned scratch reused across calls; steady state is zero-alloc (TestTransportZeroAllocs)
		}
	}
	s.resSubIDs = resarena.Grow(s.resSubIDs, len(s.subResIDs))
	for si := 0; si < nsub; si++ {
		for _, r := range s.subResIDs[s.subResStart[si]:s.subResStart[si+1]] {
			s.resSubIDs[s.resSubStart[r]+s.resSubFill[r]] = int32(si)
			s.resSubFill[r]++
		}
	}

	level := 0.0
	remaining := nsub
	for remaining > 0 {
		if ctx.Err() != nil {
			break // cancelled: partial rates, discarded by the caller
		}
		// Bottleneck increment over live resources, compacting out the
		// drained ones (count == 0 ⇔ no unfrozen subflow touches it).
		minInc := -1.0
		live := 0
		for _, r := range s.act {
			if s.count[r] == 0 {
				continue
			}
			s.act[live] = r
			live++
			inc := (1 - s.used[r]) / float64(s.count[r])
			if minInc < 0 || inc < minInc {
				minInc = inc
			}
		}
		s.act = s.act[:live]
		if minInc < 0 {
			break
		}
		level += minInc
		for _, r := range s.act {
			s.used[r] += minInc * float64(s.count[r])
		}
		progress := false
		for _, r := range s.act {
			if s.count[r] == 0 || 1-s.used[r] > satEps {
				continue
			}
			// Newly saturated: freeze its surviving subflows at the
			// current level and retire their incidences.
			for _, si := range s.resSubIDs[s.resSubStart[r]:s.resSubStart[r+1]] {
				if s.frozen[si] {
					continue
				}
				s.frozen[si] = true
				s.subLevel[si] = level
				remaining--
				progress = true
				for _, rr := range s.subResIDs[s.subResStart[si]:s.subResStart[si+1]] {
					s.count[rr]--
				}
			}
		}
		if !progress {
			break
		}
	}
	s.clampUnfrozenSubflows(level, remaining)

	for si := 0; si < nsub; si++ {
		s.rates[s.subFlow[si]] += s.subLevel[si]
	}
	clampRates(s.rates, s.local)
	return Result{FlowRate: s.rates}
}

// clampUnfrozenSubflows deterministically settles subflows still live
// when the filling loop exits through a safety hatch (minInc < 0, or a
// round that saturates no resource within tolerance — floating-point
// corner cases; unreachable on well-formed instances). Such subflows have
// been credited the full fill level even where a shared resource (e.g. a
// common source NIC) is already at capacity, so each is frozen at the
// level scaled down by its most-oversubscribed resource. Normal exits
// (remaining == 0) are untouched.
//
//jellyvet:hotpath
func (s *Sim) clampUnfrozenSubflows(level float64, remaining int) {
	if remaining == 0 {
		return
	}
	for si := range s.subFlow {
		if s.frozen[si] {
			continue
		}
		over := 1.0
		for _, r := range s.subResIDs[s.subResStart[si]:s.subResStart[si+1]] {
			if s.used[r] > over {
				over = s.used[r]
			}
		}
		s.frozen[si] = true
		s.subLevel[si] = level / over
	}
}

// simulateCoupled models MPTCP's coupled congestion control as flow-level
// max-min: every unfrozen flow grows at the common fair rate on its
// currently active route (the first route in shortest-first order whose
// links all have residual capacity); when that route saturates, the flow's
// accumulated rate stays in place and growth moves to the next open route;
// the flow freezes when no route is open. Deliberately consumes no
// randomness (see the package comment's stream contract).
//
//jellyvet:hotpath
func (s *Sim) simulateCoupled(ctx context.Context, flows []traffic.Flow, table *routing.Table) Result {
	s.pathResIDs = s.pathResIDs[:0]
	s.pathResStart = append(s.pathResStart[:0], 0) //jellyvet:allow hotpath -- grows Sim-owned scratch reused across calls; steady state is zero-alloc (TestTransportZeroAllocs)
	s.flowPathStart = resarena.Grow(s.flowPathStart, len(flows)+1)
	s.active = resarena.Grow(s.active, len(flows))
	s.flowLevel = resarena.Grow(s.flowLevel, len(flows))
	s.flowPathStart[0] = 0

	for fi := range flows {
		f := &flows[fi]
		s.active[fi] = -1
		s.flowLevel[fi] = 0
		if f.SrcSwitch == f.DstSwitch {
			s.local[fi] = true
			s.rates[fi] = 1
			s.flowPathStart[fi+1] = s.flowPathStart[fi]
			continue
		}
		paths := table.PathsFor(f.SrcSwitch, f.DstSwitch)
		for _, p := range paths {
			s.pathResIDs = s.appendPathResources(s.pathResIDs, f, p)
			s.pathResStart = append(s.pathResStart, int32(len(s.pathResIDs))) //jellyvet:allow hotpath -- grows Sim-owned scratch reused across calls; steady state is zero-alloc (TestTransportZeroAllocs)
		}
		s.flowPathStart[fi+1] = int32(len(s.pathResStart) - 1)
		if len(paths) > 0 {
			s.active[fi] = 0
		}
	}
	s.resetKernel()

	open := func(pi int32) bool { //jellyvet:allow hotpath -- non-escaping local closure; called only below, so it stays on the stack
		for _, r := range s.pathResIDs[s.pathResStart[pi]:s.pathResStart[pi+1]] {
			if 1-s.used[r] <= satEps {
				return false
			}
		}
		return true
	}

	level := 0.0
	roundCap := 4*s.nres + len(flows) + 16
	for rounds := 0; ; rounds++ {
		if rounds > roundCap {
			break // numerical safety net; never reached in practice
		}
		if ctx.Err() != nil {
			break // cancelled: partial rates, discarded by the caller
		}
		// Recompute active routes and per-resource counts.
		for i := range s.fcount {
			s.fcount[i] = 0
		}
		liveFlows := 0
		for fi := range flows {
			if s.active[fi] < 0 || s.local[fi] {
				continue
			}
			first := s.flowPathStart[fi]
			if !open(first + s.active[fi]) {
				// Advance to the first open route, or freeze at the
				// current level.
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
				s.fcount[r]++
			}
		}
		if liveFlows == 0 {
			break
		}
		minInc := -1.0
		for r := 0; r < s.nres; r++ {
			if s.fcount[r] == 0 {
				continue
			}
			inc := (1 - s.used[r]) / s.fcount[r]
			if minInc < 0 || inc < minInc {
				minInc = inc
			}
		}
		if minInc <= 0 {
			break
		}
		level += minInc
		for r := 0; r < s.nres; r++ {
			if s.fcount[r] > 0 {
				s.used[r] += minInc * s.fcount[r]
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

//jellyvet:hotpath
func clampRates(rates []float64, local []bool) {
	for fi := range rates {
		if !local[fi] && rates[fi] > 1 {
			rates[fi] = 1
		}
	}
}
