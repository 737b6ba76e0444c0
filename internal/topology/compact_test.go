package topology

import (
	"slices"
	"testing"

	"jellyfish/internal/rng"
)

// expandRuns spells run-length values out one entry per switch.
func expandRuns(runs []Run) []int {
	var out []int
	for _, r := range runs {
		for i := int32(0); i < r.Count; i++ {
			out = append(out, int(r.Value))
		}
	}
	return out
}

func TestCompactRunsRoundTrip(t *testing.T) {
	top := JellyfishHeterogeneous(
		[]int{24, 24, 24, 48, 48, 64, 64, 64, 64, 24},
		[]int{8, 8, 8, 16, 16, 0, 0, 0, 0, 8},
		rng.New(3),
	)
	c := top.Compact()
	if got := expandRuns(c.Servers); !slices.Equal(got, top.Servers) {
		t.Errorf("Servers runs expand to %v, want %v", got, top.Servers)
	}
	if got := expandRuns(c.Ports); !slices.Equal(got, top.Ports) {
		t.Errorf("Ports runs expand to %v, want %v", got, top.Ports)
	}
	// Runs must be maximal: no two adjacent runs share a value.
	for _, runs := range [][]Run{c.Servers, c.Ports} {
		for i := 1; i < len(runs); i++ {
			if runs[i].Value == runs[i-1].Value {
				t.Errorf("adjacent runs %d and %d share value %d", i-1, i, runs[i].Value)
			}
		}
	}
}

func TestCompactCounters(t *testing.T) {
	top := Jellyfish(30, 8, 5, rng.New(9))
	c := top.Compact()
	if c.NumSwitches() != top.NumSwitches() {
		t.Errorf("NumSwitches %d, want %d", c.NumSwitches(), top.NumSwitches())
	}
	if c.NumServers() != top.NumServers() {
		t.Errorf("NumServers %d, want %d", c.NumServers(), top.NumServers())
	}
	if c.CSR.M() != top.Graph.M() {
		t.Errorf("links %d, want %d", c.CSR.M(), top.Graph.M())
	}
}

func TestCompactIsSnapshot(t *testing.T) {
	top := Jellyfish(20, 8, 5, rng.New(7))
	c := top.Compact()
	n, m := c.NumSwitches(), c.CSR.M()
	servers0 := expandRuns(c.Servers)

	// Mutate the source topology: the snapshot must not move.
	top.Servers[0] += 3
	var u, v int
	for u = 0; u < top.NumSwitches() && v == 0; u++ {
		for w := u + 1; w < top.NumSwitches(); w++ {
			if !top.Graph.HasEdge(u, w) {
				v = w
				break
			}
		}
	}
	top.Graph.AddEdge(u-1, v)
	if c.NumSwitches() != n || c.CSR.M() != m {
		t.Errorf("snapshot dims moved to (%d, %d) after mutation", c.NumSwitches(), c.CSR.M())
	}
	if got := expandRuns(c.Servers); !slices.Equal(got, servers0) {
		t.Errorf("snapshot server map moved after mutation")
	}
}
