// Package packetsim is a discrete-event packet-level network simulator in
// the spirit of htsim, the MPTCP simulator the paper uses for §5. It
// complements internal/flowsim: flowsim computes the max-min fluid
// equilibrium directly, while packetsim actually runs AIMD congestion
// windows over store-and-forward links with drop-tail queues, providing an
// independent check that the fluid model lands where real transport
// dynamics land.
//
// The model, deliberately compact but mechanically faithful:
//
//   - Every directed switch-switch link and every server NIC is a link
//     with a fixed packet service time (1/line-rate) and a bounded FIFO
//     queue; packets are dropped at the tail when the queue is full.
//   - A flow is one or more subflows, each source-routed along a fixed
//     switch path. Subflows run TCP NewReno-style AIMD: slow start to
//     ssthresh, then +1 MSS per RTT; a drop detected via duplicate-ACK
//     (modeled as a loss event when a packet of that subflow is dropped)
//     halves the window.
//   - MPTCP couples its subflows with LIA-flavored increase: each ACK
//     grows the subflow by 1/wtotal instead of 1/w, so the aggregate is
//     roughly as aggressive as one TCP, while drops halve only the
//     affected subflow — traffic shifts away from congested paths.
//   - ACKs return after the forward one-way delay without consuming
//     bandwidth (standard teaching-simulator simplification).
//
// Time is in packet service units of the line rate: one unit = the time a
// NIC needs to serialize one MSS. Goodput per flow is measured over the
// second half of the run (the first half warms up).
//
// The event queue is a timing wheel (a calendar queue, R. Brown, CACM
// 31(10), 1988). A link accepts a packet only while its backlog is below
// QueuePackets, so every event lands within QueuePackets + 1 +
// PropDelay·(links+1) service times of the current time, and Simulate
// sizes the wheel from that bound. An event's slot is floor(t·2^r),
// monotone in t, and each slot stays sorted by time with ties in
// injection order (FIFO) by inserting from its tail — usually a plain
// append. Events therefore pop in (time, injection sequence) order,
// making the event order — and so every result — a fully specified
// function of the inputs. Like flowsim, the compiled Sim form reuses all
// scratch across calls and runs the event loop at zero
// steady-state allocations (TestPacketZeroAllocs pins it).
package packetsim

import (
	"fmt"
	"math"

	"jellyfish/internal/resarena"
	"jellyfish/internal/rng"
	"jellyfish/internal/routing"
	"jellyfish/internal/traffic"
)

// Config tunes the simulator. Zero values select defaults; Simulate
// panics on a negative QueuePackets, Horizon or PropDelay, or a
// non-finite Horizon or PropDelay.
type Config struct {
	// QueuePackets is the per-link FIFO capacity (default 64).
	QueuePackets int
	// Horizon is the simulated duration in packet service times
	// (default 4000).
	Horizon float64
	// PropDelay is the per-hop propagation delay in service times
	// (default 0.1).
	PropDelay float64
	// Subflows per flow for MPTCP (default 8).
	Subflows int
	// Coupled selects MPTCP coupling (LIA-style increase); false gives
	// independent NewReno subflows.
	Coupled bool
}

func (c Config) withDefaults() Config {
	if c.QueuePackets == 0 {
		c.QueuePackets = 64
	}
	if c.Horizon == 0 {
		c.Horizon = 4000
	}
	if c.PropDelay == 0 {
		c.PropDelay = 0.1
	}
	if c.Subflows == 0 {
		c.Subflows = 8
	}
	// The timing wheel relies on these: events never land in the past
	// and never beyond a finite lookahead.
	if c.QueuePackets < 1 {
		panic(fmt.Sprintf("packetsim: Config.QueuePackets must be positive, got %d", c.QueuePackets))
	}
	if !(c.Horizon > 0) || math.IsInf(c.Horizon, 0) {
		panic(fmt.Sprintf("packetsim: Config.Horizon must be positive and finite, got %v", c.Horizon))
	}
	if !(c.PropDelay >= 0) || math.IsInf(c.PropDelay, 0) {
		panic(fmt.Sprintf("packetsim: Config.PropDelay must be non-negative and finite, got %v", c.PropDelay))
	}
	return c
}

// Result reports measured per-flow goodput in NIC-rate units.
type Result struct {
	FlowGoodput []float64
}

// Mean returns the average goodput across flows.
func (r Result) Mean() float64 {
	if len(r.FlowGoodput) == 0 {
		return 0
	}
	var s float64
	for _, x := range r.FlowGoodput {
		s += x
	}
	return s / float64(len(r.FlowGoodput))
}

// subflow is one AIMD congestion-window instance pinned to a path. Its
// links live in the Sim's flat subLinkIDs pool at [linkStart, linkEnd).
type subflow struct {
	flow               int32
	linkStart, linkEnd int32
	inFlight           int32
	delivered          int32
	lossPending        bool
	cwnd               float64
	ssthresh           float64
}

type evKind uint8

const (
	evArrive evKind = iota // packet reaches head of link l, begins service
	evAck                  // ACK returns to the sender
)

// event is one pending simulation step. Time ties pop in injection
// order, fully specifying the simulation order.
type event struct {
	t    float64
	sub  int32
	hop  int32
	kind evKind
	drop bool
}

// A Sim is a compiled, reusable packet simulator instance; see the
// package comment. Not safe for concurrent use — one per worker
// goroutine. Reuse across different topologies and tables is safe and
// bit-identical to a fresh instance (link identity is keyed by server id
// and directed switch pair, with per-call busy-state invalidated by
// generation stamp).
type Sim struct {
	arena resarena.Arena

	// busyUntil per link arena id; valid where gen == curGen. With
	// unit-size packets the queue length at time t is exactly
	// busyUntil − t service times, so no explicit queue is needed.
	busy   []float64
	gen    []uint32
	curGen uint32

	subs         []subflow
	subLinkIDs   []int32
	flowSubStart []int32 // subflows of flow fi: [start[fi], start[fi+1])

	// The timing wheel (see the package comment). slots[k&mask] holds the
	// pending events of absolute slot k = floor(t·scale) in pop order
	// from ev[head]; cur is the absolute slot popping resumes from.
	slots   []wheelSlot
	mask    int
	scale   float64
	cur     int
	pending int

	cfg    Config
	warmup float64

	rates []float64
	local []bool
}

// NewSim returns a Sim pre-sized for the given switch and server counts
// (both lower bounds; the arena grows on demand).
func NewSim(switches, servers int) *Sim {
	s := &Sim{}
	s.arena.EnsureSwitches(switches)
	s.arena.EnsureServers(servers)
	return s
}

// Simulate runs the packet simulation for the given flows over the route
// table. proto semantics match flowsim: TCP1 = one subflow on a hashed
// route, TCP8 = eight independent subflows on hashed routes, MPTCP8 =
// eight coupled subflows on distinct routes.
//
// The returned Result aliases the instance's goodput buffer: it is valid
// until the next Simulate call on this Sim.
//
//jellyvet:hotpath
func (s *Sim) Simulate(flows []traffic.Flow, table *routing.Table, cfgIn Config, src *rng.Source) Result {
	s.cfg = cfgIn.withDefaults()
	s.warmup = s.cfg.Horizon / 2
	s.curGen++
	if s.curGen == 0 {
		clear(s.gen)
		s.curGen = 1
	}
	s.rates = resarena.Grow(s.rates, len(flows))
	s.local = resarena.Grow(s.local, len(flows))
	for i := range s.rates {
		s.rates[i] = 0
	}
	for i := range s.local {
		s.local[i] = false
	}
	s.subs = s.subs[:0]
	s.subLinkIDs = s.subLinkIDs[:0]
	s.flowSubStart = resarena.Grow(s.flowSubStart, len(flows)+1)
	s.flowSubStart[0] = 0

	maxLinks := 0
	for fi := range flows {
		f := &flows[fi]
		if f.SrcSwitch == f.DstSwitch {
			s.local[fi] = true
			s.rates[fi] = 1
			s.flowSubStart[fi+1] = s.flowSubStart[fi]
			continue
		}
		paths := table.PathsFor(f.SrcSwitch, f.DstSwitch)
		if len(paths) == 0 {
			s.flowSubStart[fi+1] = s.flowSubStart[fi]
			continue
		}
		for k := 0; k < s.cfg.Subflows; k++ {
			var p []int
			if s.cfg.Coupled {
				p = paths[k%len(paths)]
			} else {
				p = paths[src.Intn(len(paths))]
			}
			start := int32(len(s.subLinkIDs))
			s.subLinkIDs = append(s.subLinkIDs, s.touch(s.arena.SrcNIC(f.SrcServer))) //jellyvet:allow hotpath -- grows Sim-owned arena reused across calls; steady state is zero-alloc (TestPacketZeroAllocs)
			for i := 0; i+1 < len(p); i++ {
				s.subLinkIDs = append(s.subLinkIDs, s.touch(s.arena.Link(p[i], p[i+1]))) //jellyvet:allow hotpath -- grows Sim-owned arena reused across calls; steady state is zero-alloc (TestPacketZeroAllocs)
			}
			s.subLinkIDs = append(s.subLinkIDs, s.touch(s.arena.DstNIC(f.DstServer))) //jellyvet:allow hotpath -- grows Sim-owned arena reused across calls; steady state is zero-alloc (TestPacketZeroAllocs)
			s.subs = append(s.subs, subflow{                                          //jellyvet:allow hotpath -- grows Sim-owned arena reused across calls; steady state is zero-alloc (TestPacketZeroAllocs)
				flow: int32(fi), linkStart: start, linkEnd: int32(len(s.subLinkIDs)),
				cwnd: 2, ssthresh: 32,
			})
			maxLinks = max(maxLinks, len(s.subLinkIDs)-int(start))
		}
		s.flowSubStart[fi+1] = int32(len(s.subs))
	}

	// serve accepts a packet only below QueuePackets of backlog, so no
	// event lands further ahead than a full queue plus one service time
	// plus the propagation delay of the longest path.
	s.resetWheel(float64(s.cfg.QueuePackets) + 1 + s.cfg.PropDelay*float64(maxLinks+1))

	for si := range s.subs {
		s.inject(0, int32(si))
	}

	for s.pending > 0 {
		ev := s.pop()
		if ev.t > s.cfg.Horizon {
			break
		}
		sf := &s.subs[ev.sub]
		switch ev.kind {
		case evArrive:
			s.serve(ev.t, ev.sub, ev.hop)
		case evAck:
			sf.inFlight--
			if ev.drop {
				// Loss event: multiplicative decrease (once per window).
				if !sf.lossPending {
					sf.ssthresh = sf.cwnd / 2
					if sf.ssthresh < 1 {
						sf.ssthresh = 1
					}
					sf.cwnd = sf.ssthresh
					sf.lossPending = true
				}
			} else {
				sf.lossPending = false
				if ev.t > s.warmup {
					sf.delivered++
				}
				if sf.cwnd < sf.ssthresh {
					sf.cwnd++ // slow start
				} else if s.cfg.Coupled {
					sf.cwnd += s.coupledIncrease(sf.flow)
				} else {
					sf.cwnd += 1 / sf.cwnd // congestion avoidance
				}
			}
			s.inject(ev.t, ev.sub)
		}
	}

	window := s.cfg.Horizon - s.warmup
	for si := range s.subs {
		s.rates[s.subs[si].flow] += float64(s.subs[si].delivered) / window
	}
	for fi := range s.rates {
		if !s.local[fi] && s.rates[fi] > 1 {
			s.rates[fi] = 1
		}
	}
	return Result{FlowGoodput: s.rates}
}

// touch grows the busy-state tables to cover link arena id r and resets
// its state on first touch of the current call.
//
//jellyvet:hotpath
func (s *Sim) touch(r int32) int32 {
	for int(r) >= len(s.gen) {
		s.gen = append(s.gen, 0)   //jellyvet:allow hotpath -- grows Sim-owned arena reused across calls; steady state is zero-alloc (TestPacketZeroAllocs)
		s.busy = append(s.busy, 0) //jellyvet:allow hotpath -- grows Sim-owned arena reused across calls; steady state is zero-alloc (TestPacketZeroAllocs)
	}
	if s.gen[r] != s.curGen {
		s.gen[r] = s.curGen
		s.busy[r] = 0
	}
	return r
}

// inject sends packets for subflow si until its window is filled.
//
//jellyvet:hotpath
func (s *Sim) inject(now float64, si int32) {
	sf := &s.subs[si]
	for sf.inFlight < int32(sf.cwnd) {
		sf.inFlight++
		s.push(event{t: now, kind: evArrive, sub: si, hop: 0})
	}
}

// serve enqueues the packet at the subflow's hop-th link (or drops it at
// the tail).
//
//jellyvet:hotpath
func (s *Sim) serve(now float64, si, hop int32) {
	sf := &s.subs[si]
	l := s.subLinkIDs[sf.linkStart+hop]
	backlog := s.busy[l] - now
	if backlog < 0 {
		backlog = 0
	}
	if backlog >= float64(s.cfg.QueuePackets) {
		// Drop-tail: the sender learns via duplicate ACKs after the
		// one-way delay accumulated so far.
		s.push(event{t: now + s.cfg.PropDelay*float64(hop+1), kind: evAck, sub: si, drop: true})
		return
	}
	done := now + backlog + 1 // queueing + one service time
	s.busy[l] = done
	if sf.linkStart+hop+1 < sf.linkEnd {
		s.push(event{t: done + s.cfg.PropDelay, kind: evArrive, sub: si, hop: hop + 1})
	} else {
		s.push(event{t: done + s.cfg.PropDelay, kind: evAck, sub: si})
	}
}

//jellyvet:hotpath
func (s *Sim) coupledIncrease(fi int32) float64 {
	var wtot float64
	for si := s.flowSubStart[fi]; si < s.flowSubStart[fi+1]; si++ {
		wtot += s.subs[si].cwnd
	}
	if wtot < 1 {
		wtot = 1
	}
	return 1 / wtot
}

// ---- timing wheel ----

const (
	// wheelResolutionLog2 sets the slot width to 2^-5 service times:
	// fine enough that a slot rarely holds out-of-order times, coarse
	// enough that the cursor seldom crosses empty slots.
	wheelResolutionLog2 = 5
	// maxWheelSlots caps the slot table; a longer lookahead coarsens the
	// resolution instead.
	maxWheelSlots = 1 << 16
)

// wheelSlot holds one slot's pending events sorted by time, ties in
// injection order; ev[:head] are already popped.
type wheelSlot struct {
	ev   []event
	head int
}

// resetWheel empties the wheel and sizes it for events landing at most
// lookahead service times after the current time. Slot indices are
// floor(t·scale) with scale a power of two, so they are monotone in t;
// with more slots than the lookahead spans, a physical slot never holds
// two absolute slots' events at once. The resolution is coarsened until
// the table fits maxWheelSlots.
func (s *Sim) resetWheel(lookahead float64) {
	s.scale = 1 << wheelResolutionLog2
	for lookahead*s.scale+2 > maxWheelSlots {
		s.scale /= 2
	}
	n := 1
	for float64(n) < lookahead*s.scale+2 {
		n *= 2
	}
	if n > len(s.slots) {
		s.slots = append(s.slots, make([]wheelSlot, n-len(s.slots))...)
	}
	for i := range s.slots {
		s.slots[i].ev = s.slots[i].ev[:0]
		s.slots[i].head = 0
	}
	s.mask = n - 1
	s.cur = 0
	s.pending = 0
}

// push files ev in its slot after every pending event of the same or an
// earlier time.
//
//jellyvet:hotpath
func (s *Sim) push(ev event) {
	sl := &s.slots[int(ev.t*s.scale)&s.mask]
	sl.ev = append(sl.ev, ev) //jellyvet:allow hotpath -- grows a Sim-owned wheel slot reused across calls; steady state is zero-alloc (TestPacketZeroAllocs)
	i := len(sl.ev) - 1
	for i > sl.head && sl.ev[i-1].t > ev.t {
		sl.ev[i] = sl.ev[i-1]
		i--
	}
	sl.ev[i] = ev
	s.pending++
}

// pop removes and returns the earliest pending event; the caller checks
// that one exists.
//
//jellyvet:hotpath
func (s *Sim) pop() event {
	for {
		sl := &s.slots[s.cur&s.mask]
		if sl.head < len(sl.ev) {
			ev := sl.ev[sl.head]
			sl.head++
			if sl.head == len(sl.ev) {
				sl.ev = sl.ev[:0]
				sl.head = 0
			}
			s.pending--
			return ev
		}
		s.cur++
	}
}
