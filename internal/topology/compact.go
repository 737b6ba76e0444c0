package topology

import "jellyfish/internal/graph"

// A Run is one run-length-encoded span: Count consecutive switches that
// all carry Value (servers or ports).
type Run struct {
	Count int32
	Value int32
}

// Compact is the megascale view of a Topology: the graph as an immutable
// graph.CSR snapshot and the per-switch server/port counts run-length
// encoded. At 100k switches the classic Topology spends two ints per
// switch on Servers/Ports even though real fabrics have a handful of
// distinct SKUs; the run-length form is O(#SKU boundaries) instead.
// Build it with Topology.Compact(); mutating the source Topology
// afterwards does not change the snapshot.
type Compact struct {
	Name string
	// CSR is the switch-interconnect adjacency snapshot.
	CSR *graph.CSR
	// Servers and Ports run-length encode the per-switch attachment
	// counts in switch-id order; runs in each list sum to NumSwitches.
	Servers []Run
	Ports   []Run

	numServers int
}

// Compact returns the compact snapshot of the topology. The CSR component
// is memoized on the underlying graph; the run-length lists are rebuilt
// per call (O(#runs + n), negligible next to any use of the result).
func (t *Topology) Compact() *Compact {
	c := &Compact{
		Name:    t.Name,
		CSR:     t.Graph.CSR(),
		Servers: appendRuns(nil, t.Servers),
		Ports:   appendRuns(nil, t.Ports),
	}
	for _, s := range t.Servers {
		c.numServers += s
	}
	return c
}

func appendRuns(runs []Run, vals []int) []Run {
	for _, v := range vals {
		if k := len(runs); k > 0 && runs[k-1].Value == int32(v) {
			runs[k-1].Count++
		} else {
			runs = append(runs, Run{Count: 1, Value: int32(v)})
		}
	}
	return runs
}

// NumSwitches returns the number of switches.
func (c *Compact) NumSwitches() int { return c.CSR.N() }

// NumServers returns the total number of attached servers.
func (c *Compact) NumServers() int { return c.numServers }
