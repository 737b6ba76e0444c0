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
// The entry point is the compiled instance: build one Sim, call Simulate
// (or Trial) on it repeatedly; every internal array is reused across
// calls (the arena id mapping is invalidated by generation stamp, never
// cleared) and the steady-state Simulate call allocates nothing
// (TestTransportZeroAllocs pins 0 allocs/op).
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
	fcount []float64 // coupled filling: live flows whose active route crosses it
	act    []int32   // dense ids with count > 0 (uncoupled) or listed (coupled), compacted
	listed []bool    // coupled: resource is in act
	sat    []int32   // coupled: resources the last fill saturated

	// Uncoupled (TCP1/TCP8) compile output: subflow → resource CSR.
	subFlow     []int32
	subResStart []int32
	subResIDs   []int32
	frozen      []bool
	subLevel    []float64 // fill level at which the subflow froze

	// Resource → subflow (uncoupled) or → path (coupled) CSR, indexed by
	// dense id; built by indexResources.
	resSubStart []int32
	resSubFill  []int32
	resSubIDs   []int32

	// Coupled (MPTCP8) compile output: flow → paths → resources CSR, and
	// the path → flow index.
	flowPathStart []int32
	pathResStart  []int32
	pathResIDs    []int32
	pathFlow      []int32
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

// Trial runs one transport trial on c's topology — the recipe behind the
// paper's §5 results — given srv, its server→switch map:
//
//  1. a random permutation over srv, drawn from src.Split("traffic");
//  2. the named scheme's route table (routing.Compiled.Table), built from
//     src.Split("routes");
//  3. SimulateContext, seeded by SimSource(src, proto).
//
// Every transport trial in the module runs through here, so those three
// splits are the one stream contract of a trial. workers bounds route
// construction only; the result is identical for every value. The Result
// aliases the Sim's rate buffer, as Simulate's does.
func (s *Sim) Trial(ctx context.Context, c *routing.Compiled, srv []int, scheme string, proto Protocol, src *rng.Source, workers int) Result {
	pat := traffic.RandomPermutation(srv, src.Split("traffic"))
	table := c.Table(scheme, routing.PairsForPattern(pat), src.Split("routes"), workers)
	return s.SimulateContext(ctx, pat.Flows, table, proto, SimSource(src, proto))
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

// indexResources builds the resource→item CSR (resSubStart, resSubIDs;
// each list in item order) from an item→resource CSR over the call's
// dense resources, leaving each resource's incidence count in count.
// Items are subflows (uncoupled) or paths (coupled).
//
//jellyvet:hotpath
func (s *Sim) indexResources(itemStart, itemRes []int32) {
	for _, r := range itemRes {
		s.count[r]++
	}
	s.resSubStart = resarena.Grow(s.resSubStart, s.nres+1)
	s.resSubFill = resarena.Grow(s.resSubFill, s.nres)
	s.resSubStart[0] = 0
	for r := 0; r < s.nres; r++ {
		s.resSubStart[r+1] = s.resSubStart[r] + s.count[r]
		s.resSubFill[r] = 0
	}
	s.resSubIDs = resarena.Grow(s.resSubIDs, len(itemRes))
	for it := 0; it+1 < len(itemStart); it++ {
		for _, r := range itemRes[itemStart[it]:itemStart[it+1]] {
			s.resSubIDs[s.resSubStart[r]+s.resSubFill[r]] = int32(it)
			s.resSubFill[r]++
		}
	}
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
	// The resource→subflow CSR, then the initial active-resource set.
	s.indexResources(s.subResStart, s.subResIDs)
	s.act = resarena.Grow(s.act, s.nres)
	n := 0
	for r := 0; r < s.nres; r++ {
		if s.count[r] > 0 {
			s.act[n] = int32(r)
			n++
		}
	}
	s.act = s.act[:n]

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
// The filling is saturation-driven, like simulateSubflows: fcount holds
// each resource's live-flow count and is updated only as flows change
// routes, each round scans and fills only the listed resources (those
// some active route crosses), and after the fill only the flows whose
// active route crosses a resource that just saturated are re-routed,
// found through the resource→path adjacency and the path→flow index.
// Every float operation is the round-rebuild fill's: fcount holds exact
// integer counts whatever order they change in, the minimum does not
// depend on scan order, each fill adds minInc·fcount[r] to used[r], and
// a flow freezes at the same level in the same round, so rates and ctx
// polls match it bit for bit (TestCoupledFillMatchesReference).
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
	s.indexResources(s.pathResStart, s.pathResIDs)
	s.pathFlow = resarena.Grow(s.pathFlow, len(s.pathResStart)-1)
	for fi := range flows {
		for pi := s.flowPathStart[fi]; pi < s.flowPathStart[fi+1]; pi++ {
			s.pathFlow[pi] = int32(fi)
		}
	}

	// Every routed flow starts on its first route.
	s.listed = resarena.Grow(s.listed, s.nres)
	for r := range s.listed {
		s.listed[r] = false
	}
	s.act = resarena.Grow(s.act, s.nres)[:0]
	s.sat = resarena.Grow(s.sat, s.nres)
	live := 0
	for fi := range flows {
		if s.active[fi] >= 0 {
			live++
			s.shift(s.flowPathStart[fi], 1)
		}
	}

	level := 0.0
	roundCap := 4*s.nres + len(flows) + 16
	for rounds := 0; rounds <= roundCap; rounds++ { // the cap is a numerical safety net, never reached in practice
		if ctx.Err() != nil {
			break // cancelled: partial rates, discarded by the caller
		}
		if live == 0 {
			break
		}
		// Bottleneck increment over the listed resources, compacting out
		// the ones no active route crosses any more.
		minInc := -1.0
		n := 0
		for _, r := range s.act {
			if s.fcount[r] == 0 {
				s.listed[r] = false
				continue
			}
			s.act[n] = r
			n++
			inc := (1 - s.used[r]) / s.fcount[r]
			if minInc < 0 || inc < minInc {
				minInc = inc
			}
		}
		s.act = s.act[:n]
		if minInc <= 0 {
			break
		}
		level += minInc
		nsat := 0
		for _, r := range s.act {
			s.used[r] += minInc * s.fcount[r]
			if 1-s.used[r] <= satEps {
				s.sat[nsat] = r
				nsat++
			}
		}
		// Move every flow whose active route crosses a resource that just
		// saturated; a resource whose count has dropped to zero has no
		// such flow left.
		for _, r := range s.sat[:nsat] {
			if s.fcount[r] == 0 {
				continue
			}
			for _, pi := range s.resSubIDs[s.resSubStart[r]:s.resSubStart[r+1]] {
				fi := s.pathFlow[pi]
				if s.active[fi] >= 0 && s.flowPathStart[fi]+s.active[fi] == pi && !s.advance(fi, level) {
					live--
				}
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

// advance moves flow fi off its closed active route onto the next open
// one and reports true, or freezes the flow at level and reports false
// when none is left. The search starts past the active route: the routes
// before it had closed when it was chosen, and used never decreases, so
// a route that has closed stays closed.
//
//jellyvet:hotpath
func (s *Sim) advance(fi int32, level float64) bool {
	first := s.flowPathStart[fi]
	pi := first + s.active[fi]
	s.shift(pi, -1)
	for pi++; pi < s.flowPathStart[fi+1]; pi++ {
		if s.open(pi) {
			s.active[fi] = pi - first
			s.shift(pi, 1)
			return true
		}
	}
	s.active[fi] = -1
	s.flowLevel[fi] = level
	return false
}

// open reports whether every resource on path pi has residual capacity.
//
//jellyvet:hotpath
func (s *Sim) open(pi int32) bool {
	for _, r := range s.pathResIDs[s.pathResStart[pi]:s.pathResStart[pi+1]] {
		if 1-s.used[r] <= satEps {
			return false
		}
	}
	return true
}

// shift adds d (+1 or -1) to fcount along path pi, listing each resource
// not yet in act. A resource with a positive count is always listed, so
// only an increment can list one; act never holds a resource twice, so
// it stays within the nres capacity it was grown to.
//
//jellyvet:hotpath
func (s *Sim) shift(pi int32, d float64) {
	for _, r := range s.pathResIDs[s.pathResStart[pi]:s.pathResStart[pi+1]] {
		s.fcount[r] += d
		if !s.listed[r] {
			s.listed[r] = true
			n := len(s.act)
			s.act = s.act[:n+1]
			s.act[n] = r
		}
	}
}

//jellyvet:hotpath
func clampRates(rates []float64, local []bool) {
	for fi := range rates {
		if !local[fi] && rates[fi] > 1 {
			rates[fi] = 1
		}
	}
}
