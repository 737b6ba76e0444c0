package packetsim

import (
	"math"
	"strings"
	"testing"

	"jellyfish/internal/graph"
	"jellyfish/internal/rng"
	"jellyfish/internal/routing"
	"jellyfish/internal/topology"
	"jellyfish/internal/traffic"
)

type instance struct {
	flows []traffic.Flow
	table *routing.Table
}

func jellyfishInstance(switches, ports, deg int, seed uint64) instance {
	top := topology.Jellyfish(switches, ports, deg, rng.New(seed))
	pat := traffic.RandomPermutation(top.ServerSwitches(), rng.New(seed+1))
	return instance{flows: pat.Flows, table: routing.NewCompiled(top.Graph).KShortest(routing.PairsForPattern(pat), 8, 1)}
}

// One Sim reused across differing instances and configs must reproduce
// one-shot results bit for bit — the compiled-instance contract.
func TestSimReuseMatchesOneShot(t *testing.T) {
	instances := []instance{
		jellyfishInstance(15, 8, 5, 10),
		jellyfishInstance(20, 10, 7, 20),
		jellyfishInstance(15, 8, 5, 10),
	}
	cfgs := []Config{
		{Subflows: 1, Horizon: 1500},
		{Subflows: 8, Coupled: true, Horizon: 1500},
	}
	sim := NewSim(2, 2) // deliberately undersized: growth must be safe
	for round := 0; round < 2; round++ {
		for ii, in := range instances {
			for ci, cfg := range cfgs {
				want := new(Sim).Simulate(in.flows, in.table, cfg, rng.New(33))
				got := sim.Simulate(in.flows, in.table, cfg, rng.New(33))
				if len(got.FlowGoodput) != len(want.FlowGoodput) {
					t.Fatalf("round %d instance %d cfg %d: lengths differ", round, ii, ci)
				}
				for i := range want.FlowGoodput {
					if got.FlowGoodput[i] != want.FlowGoodput[i] {
						t.Fatalf("round %d instance %d cfg %d flow %d: reuse %v != one-shot %v",
							round, ii, ci, i, got.FlowGoodput[i], want.FlowGoodput[i])
					}
				}
			}
		}
	}
}

// The event loop's zero-allocation pin: after warm-up, a full simulation
// on a compiled instance — millions of wheel operations — allocates
// nothing. The wheel's slots keep their capacity across calls, which is
// what makes this hold.
func TestPacketZeroAllocs(t *testing.T) {
	in := jellyfishInstance(15, 8, 5, 42)
	sim := NewSim(15, len(in.flows))
	cfg := Config{Subflows: 8, Coupled: true, Horizon: 800}
	src := rng.New(5)
	sim.Simulate(in.flows, in.table, cfg, src)
	allocs := testing.AllocsPerRun(5, func() {
		sim.Simulate(in.flows, in.table, cfg, src)
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per steady-state Simulate, want 0", allocs)
	}
}

// The wheel must pop in exactly (time, injection sequence) order when
// driven the way Simulate drives it: every push lands within the
// lookahead of the last popped time, including at that very time. The
// drive runs for dozens of revolutions and mixes exact ties, pushes onto
// slot boundaries (multiples of the slot width) and pushes at the full
// lookahead; a reference scan for the (time, sequence) minimum checks
// every pop. The first lookahead spans one slot short of a power of two,
// the tightest table the sizing rule builds; the second forces a
// coarsened resolution.
func TestEventWheelOrdering(t *testing.T) {
	type key struct {
		t   float64
		seq int32
	}
	for _, lookahead := range []float64{16 - 1.0/32, 1 << 16} {
		s := &Sim{}
		s.resetWheel(lookahead)
		width := 1 / s.scale
		revolution := float64(s.mask+1) * width
		src := rng.New(9)
		var pending []key
		var seq int32
		push := func(at float64) {
			s.push(event{t: at, sub: seq})
			pending = append(pending, key{at, seq})
			seq++
		}
		for i := 0; i < 8; i++ {
			push(0)
		}
		now := 0.0
		for pops := 0; now < 40*revolution; pops++ {
			if s.pending != len(pending) {
				t.Fatalf("lookahead %v pop %d: wheel holds %d events, want %d", lookahead, pops, s.pending, len(pending))
			}
			best := 0
			for j, k := range pending {
				if k.t < pending[best].t || (k.t == pending[best].t && k.seq < pending[best].seq) {
					best = j
				}
			}
			want := pending[best]
			pending = append(pending[:best], pending[best+1:]...)
			ev := s.pop()
			if ev.t != want.t || ev.sub != want.seq {
				t.Fatalf("lookahead %v pop %d: got (t=%v, seq=%d), want (t=%v, seq=%d)",
					lookahead, pops, ev.t, ev.sub, want.t, want.seq)
			}
			now = ev.t
			n := src.Intn(3)
			if len(pending) < 32 {
				n = 2
			}
			for ; n > 0; n-- {
				switch src.Intn(5) {
				case 0:
					push(now) // tie with the event just popped
				case 1:
					push(pending[src.Intn(len(pending))].t) // tie with a pending event
				case 2:
					// An exact slot boundary k/2^r ahead of now.
					k := math.Floor(now/width) + 1 + float64(src.Intn(int(lookahead/width)))
					push(math.Min(k*width, now+lookahead))
				case 3:
					push(now + lookahead)
				default:
					push(now + src.Float64()*lookahead)
				}
			}
		}
		if s.cur <= 40*s.mask {
			t.Fatalf("lookahead %v: cursor reached slot %d, want 40+ revolutions of %d", lookahead, s.cur, s.mask+1)
		}
	}
}

// Config values the wheel cannot honor — events scheduled into the past
// or beyond any finite lookahead — panic with the offending field's name
// instead of corrupting the event order.
func TestConfigRejectsInvalid(t *testing.T) {
	for _, tc := range []struct {
		field string
		cfg   Config
	}{
		{"QueuePackets", Config{QueuePackets: -1}},
		{"Horizon", Config{Horizon: -5}},
		{"Horizon", Config{Horizon: math.Inf(1)}},
		{"Horizon", Config{Horizon: math.NaN()}},
		{"PropDelay", Config{PropDelay: -0.1}},
		{"PropDelay", Config{PropDelay: math.Inf(1)}},
		{"PropDelay", Config{PropDelay: math.NaN()}},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "Config."+tc.field) {
					t.Errorf("%+v: panic %q, want one naming Config.%s", tc.cfg, msg, tc.field)
				}
			}()
			tc.cfg.withDefaults() // Simulate's first step
		}()
	}
}

// A huge queue means a huge lookahead: the wheel coarsens its resolution
// rather than allocate a slot table to match, and the simulation still
// runs correctly.
func TestWheelCapsSlotTable(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1)
	flows := []traffic.Flow{{SrcServer: 0, DstServer: 1, SrcSwitch: 0, DstSwitch: 1}}
	sim := NewSim(2, 2)
	res := sim.Simulate(flows, tableFor(g, flows, false), Config{Subflows: 1, QueuePackets: 1 << 16}, rng.New(1))
	if len(sim.slots) > maxWheelSlots {
		t.Fatalf("slot table has %d slots, cap is %d", len(sim.slots), maxWheelSlots)
	}
	if res.FlowGoodput[0] < 0.85 {
		t.Fatalf("single flow goodput = %v with a huge queue, want near line rate", res.FlowGoodput[0])
	}
}
