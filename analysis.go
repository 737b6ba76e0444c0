package jellyfish

import (
	"context"
	"fmt"

	"jellyfish/internal/estimate"
	"jellyfish/internal/flowsim"
	"jellyfish/internal/rng"
	"jellyfish/internal/routing"
	"jellyfish/internal/traffic"
)

// RoutingScheme selects the forwarding plane for packet-level evaluation.
type RoutingScheme int

const (
	// ECMP8 is 8-way equal-cost multipath over shortest paths.
	ECMP8 RoutingScheme = iota
	// ECMP64 is 64-way ECMP.
	ECMP64
	// KSP8 is 8-shortest-path routing: the 8 shortest loopless paths,
	// read off BFS distance labels, with Yen's algorithm as the fallback.
	KSP8
)

// routingSchemes maps each scheme to its routing.Compiled.Table name and
// its printed label.
var routingSchemes = [...]struct{ table, label string }{
	ECMP8:  {"ecmp8", "ECMP-8"},
	ECMP64: {"ecmp64", "ECMP-64"},
	KSP8:   {"ksp8", "8-shortest-paths"},
}

// String names the scheme.
func (r RoutingScheme) String() string {
	if uint(r) >= uint(len(routingSchemes)) {
		return "unknown"
	}
	return routingSchemes[r].label
}

// table returns the scheme's routing.Compiled.Table name. A value outside
// the declared constants panics rather than run some other scheme.
func (r RoutingScheme) table() string {
	if uint(r) >= uint(len(routingSchemes)) {
		panic(fmt.Sprintf("jellyfish: unknown RoutingScheme(%d)", int(r)))
	}
	return routingSchemes[r].table
}

// TransportProtocol selects the congestion-control model.
type TransportProtocol = flowsim.Protocol

// Transport protocols evaluated in the paper's Table 1.
const (
	TCP1Flow       = flowsim.TCP1
	TCP8Flows      = flowsim.TCP8
	MPTCP8Subflows = flowsim.MPTCP8
)

// PacketLevelResult reports a flow-level simulation outcome.
type PacketLevelResult struct {
	// MeanThroughput is the average per-server throughput as a fraction of
	// NIC rate (the paper's Table-1 metric).
	MeanThroughput float64
	// FlowThroughputs lists per-flow rates (Fig. 13's series).
	FlowThroughputs []float64
	// Fairness is Jain's index over FlowThroughputs.
	Fairness float64
}

// PacketLevelThroughput runs the flow-level transport simulator (the
// paper's §5 methodology, flow-level substitution per DESIGN.md §8) with
// the given routing scheme and transport on one random permutation. The
// optional trailing argument bounds route-construction parallelism
// (default: all cores); the result is identical either way.
func PacketLevelThroughput(t *Topology, scheme RoutingScheme, proto TransportProtocol, seed uint64, workers ...int) PacketLevelResult {
	res := new(flowsim.Sim).Trial(context.Background(), routing.NewCompiled(t.Graph), t.ServerSwitches(),
		scheme.table(), proto, rng.New(seed), firstOrZero(workers))
	return PacketLevelResult{
		MeanThroughput:  res.Mean(),
		FlowThroughputs: res.FlowRate,
		Fairness:        flowsim.JainFairness(res.FlowRate),
	}
}

// firstOrZero unwraps an optional trailing workers argument (0 = all
// cores).
func firstOrZero(workers []int) int {
	if len(workers) > 0 {
		return workers[0]
	}
	return 0
}

// LinkPathCounts returns, for each directed switch-switch link, the number
// of distinct routing paths crossing it under the given scheme and one
// random permutation's route table — sorted ascending (Fig. 9's series).
func LinkPathCounts(t *Topology, scheme RoutingScheme, seed uint64, workers ...int) []int {
	src := rng.New(seed)
	pat := traffic.RandomPermutation(t.ServerSwitches(), src.Split("traffic"))
	table := routing.NewCompiled(t.Graph).Table(scheme.table(), routing.PairsForPattern(pat), src.Split("routes"), firstOrZero(workers))
	return routing.RankedLinkLoads(t.Graph, table)
}

// NormalizedBisectionBound returns the Bollobás lower bound on the
// normalized bisection bandwidth of RRG(switches, ports, networkDegree):
// crossing capacity divided by the NIC bandwidth of half the servers.
func NormalizedBisectionBound(switches, ports, networkDegree int) float64 {
	return estimate.RRGNormalizedBisection(switches, ports, networkDegree)
}

// ServersAtFullBisection returns the largest server count `switches`
// k-port switches support at normalized bisection ≥ 1 under the Bollobás
// bound, with the chosen network degree.
func ServersAtFullBisection(switches, ports int) (servers, networkDegree int) {
	return estimate.MaxServersAtFullBisection(switches, ports)
}

// EquipmentForServers returns the minimum total port count of a Jellyfish
// of k-port switches carrying `servers` servers at full bisection
// bandwidth (0 if infeasible) — the Fig. 2(b) cost curve.
func EquipmentForServers(servers, ports int) int {
	cost, _, _ := estimate.MinPortsForServers(servers, ports)
	return cost
}

// MeasuredBisection computes a heuristic (Kernighan–Lin) server-balanced
// minimum bisection of an explicit topology, normalized by half the
// servers' NIC bandwidth and capped at 1.
func MeasuredBisection(t *Topology, seed uint64) float64 {
	return estimate.NormalizedKLBisection(t.Graph, t.Servers, rng.New(seed))
}
