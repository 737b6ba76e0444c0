package topology

import (
	"fmt"

	"jellyfish/internal/graph"
)

// FatTree builds the 3-level k-ary fat-tree of Al-Fares et al. [6], the
// paper's primary comparison topology. k must be even. The result has:
//
//	k pods, each with k/2 edge and k/2 aggregation switches;
//	(k/2)² core switches;
//	k³/4 servers (k/2 per edge switch);
//	5k²/4 switches total, all with k ports.
//
// Switch IDs: edge switches first (pod-major), then aggregation (pod-major),
// then core.
func FatTree(k int) *Topology {
	if k < 2 || k%2 != 0 {
		panic(fmt.Sprintf("topology: fat-tree arity k=%d must be even and >= 2", k))
	}
	half := k / 2
	numEdge := k * half
	numAgg := k * half
	numCore := half * half
	n := numEdge + numAgg + numCore

	t := &Topology{
		Name:    fmt.Sprintf("fattree(k=%d)", k),
		Graph:   graph.New(n),
		Ports:   make([]int, n),
		Servers: make([]int, n),
	}
	for i := 0; i < n; i++ {
		t.Ports[i] = k
	}
	edgeID := func(pod, i int) int { return pod*half + i }
	aggID := func(pod, j int) int { return numEdge + pod*half + j }
	coreID := func(j, c int) int { return numEdge + numAgg + j*half + c }

	for pod := 0; pod < k; pod++ {
		for i := 0; i < half; i++ {
			t.Servers[edgeID(pod, i)] = half
			for j := 0; j < half; j++ {
				t.Graph.AddEdge(edgeID(pod, i), aggID(pod, j))
			}
		}
		for j := 0; j < half; j++ {
			for c := 0; c < half; c++ {
				t.Graph.AddEdge(aggID(pod, j), coreID(j, c))
			}
		}
	}
	return t
}
