package packetsim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"jellyfish/internal/rng"
	"jellyfish/internal/routing"
	"jellyfish/internal/topology"
	"jellyfish/internal/traffic"
)

// ablationInstance rebuilds one row of the ablation-packet-vs-fluid
// experiment at seed 1 (internal/experiments AblationPacketVsFluid): the
// same stream labels, server spread over servers/3 12-port switches,
// permutation traffic and kSP-8 routes. It returns the instance and the
// row's simulator stream.
func ablationInstance(servers int) (instance, *rng.Source) {
	tsrc := rng.New(1).Split("ablation-pkt").Split(fmt.Sprintf("s%d", servers))
	switches := servers / 3
	ports := make([]int, switches)
	perSwitch := make([]int, switches)
	for i := range ports {
		ports[i] = 12
		perSwitch[i] = servers / switches
		if i < servers%switches {
			perSwitch[i]++
		}
	}
	top := topology.JellyfishHeterogeneous(ports, perSwitch, tsrc.Split("topo"))
	pat := traffic.RandomPermutation(top.ServerSwitches(), tsrc.Split("traffic"))
	table := routing.NewCompiled(top.Graph).KShortest(routing.PairsForPattern(pat), 8, 1)
	return instance{flows: pat.Flows, table: table}, tsrc.Split("des")
}

// goodputDigest hashes the exact bits of every goodput, in flow order.
func goodputDigest(r Result) string {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range r.FlowGoodput {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// The simulator's results, pinned bit for bit: the event order is a fully
// specified function of the inputs (time, then injection order), so any
// change to the event queue or the protocol arithmetic that moves a
// single goodput bit shows up here. The cases cover the ablation's rows,
// uncoupled subflows (which draw hashed routes from the stream), tiny
// queues (drop-heavy), a long propagation delay, and both at once (a
// lookahead set by the path length rather than the queue).
func TestPacketGoodputGolden(t *testing.T) {
	mptcp8 := Config{Subflows: 8, Coupled: true, Horizon: 6000}
	cases := []struct {
		name    string
		servers int
		cfg     Config
		long    bool
		want    string
	}{
		{"ablation-60", 60, mptcp8, false, "fc8bf234aa8d90fa"},
		{"ablation-120", 120, mptcp8, false, "f7ee281616c95f1b"},
		{"ablation-240", 240, mptcp8, true, "7494446f423294df"},
		{"tcp8-60", 60, Config{Subflows: 8, Horizon: 3000}, false, "6bdaf8af1c17f689"},
		{"tcp1-60", 60, Config{Subflows: 1, Horizon: 3000}, false, "a4dd302d7befcf5c"},
		{"queue2-60", 60, Config{Subflows: 8, Coupled: true, Horizon: 3000, QueuePackets: 2}, false, "31b52b0e2be3dac5"},
		{"prop3-60", 60, Config{Subflows: 8, Coupled: true, Horizon: 3000, PropDelay: 3}, false, "d20d1e9e88d24f3d"},
		{"queue2-prop3-60", 60, Config{Subflows: 8, Coupled: true, Horizon: 3000, QueuePackets: 2, PropDelay: 3}, false, "f43f401ee5f8ad80"},
	}
	sim := NewSim(0, 0) // one instance across cases: reuse is part of the contract
	for _, tc := range cases {
		if tc.long && testing.Short() {
			continue
		}
		in, src := ablationInstance(tc.servers)
		res := sim.Simulate(in.flows, in.table, tc.cfg, src)
		if got := goodputDigest(res); got != tc.want {
			t.Errorf("%s: goodput digest %s, want %s (mean %v over %d flows)",
				tc.name, got, tc.want, res.Mean(), len(res.FlowGoodput))
		}
	}
}
