package topology

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"jellyfish/internal/graph"
)

// blueprint is the stable on-disk representation of a Topology: the
// construction blueprint handed to cabling crews (§6.1 envisions exactly
// this artifact being generated automatically and wired by hand). The
// decoder reads it; AppendBlueprint writes the same document by hand.
type blueprint struct {
	Name    string   `json:"name"`
	Ports   []int    `json:"ports"`
	Servers []int    `json:"servers"`
	Links   [][2]int `json:"links"`
}

// AppendBlueprint appends the topology's blueprint to dst as compact
// JSON and returns the extended slice. This is the canonical byte form:
// exactly what encoding/json writes for the blueprint document, HTML
// escaping included, with nil Ports or Servers as null and the links in
// Graph.Edges order.
func (t *Topology) AppendBlueprint(dst []byte) []byte {
	name, _ := json.Marshal(t.Name) // a string always marshals
	dst = append(append(append(dst, `{"name":`...), name...), `,"ports":`...)
	dst = appendInts(dst, t.Ports)
	dst = append(dst, `,"servers":`...)
	dst = appendInts(dst, t.Servers)
	dst = append(dst, `,"links":[`...)
	first := true
	for u := 0; u < t.Graph.N(); u++ {
		for _, v := range t.Graph.Neighbors(u) {
			if v < u {
				continue
			}
			if !first {
				dst = append(dst, ',')
			}
			first = false
			dst = append(dst, '[')
			dst = strconv.AppendInt(dst, int64(u), 10)
			dst = append(dst, ',')
			dst = strconv.AppendInt(dst, int64(v), 10)
			dst = append(dst, ']')
		}
	}
	return append(dst, "]}"...)
}

// appendInts appends xs as a JSON array, or null if xs is nil.
func appendInts(dst []byte, xs []int) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

// WriteBlueprint serializes the topology as indented JSON: the
// AppendBlueprint document, indented two spaces, plus a newline.
func (t *Topology) WriteBlueprint(w io.Writer) error {
	var buf bytes.Buffer
	if err := json.Indent(&buf, t.AppendBlueprint(nil), "", "  "); err != nil {
		return err
	}
	buf.WriteByte('\n')
	_, err := w.Write(buf.Bytes())
	return err
}

// ReadBlueprint deserializes a topology written by WriteBlueprint,
// validating structural invariants (port budgets, simple graph, ID range).
func ReadBlueprint(r io.Reader) (*Topology, error) {
	var bp blueprint
	if err := json.NewDecoder(r).Decode(&bp); err != nil {
		return nil, fmt.Errorf("topology: decoding blueprint: %w", err)
	}
	n := len(bp.Ports)
	if len(bp.Servers) != n {
		return nil, fmt.Errorf("topology: blueprint has %d port entries but %d server entries", n, len(bp.Servers))
	}
	t := &Topology{
		Name:    bp.Name,
		Graph:   graph.New(n),
		Ports:   bp.Ports,
		Servers: bp.Servers,
	}
	for i, l := range bp.Links {
		u, v := l[0], l[1]
		if u < 0 || v < 0 || u >= n || v >= n {
			return nil, fmt.Errorf("topology: blueprint link %d (%d,%d) out of range [0,%d)", i, u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("topology: blueprint link %d is a self-loop at %d", i, u)
		}
		if !t.Graph.AddEdge(u, v) {
			return nil, fmt.Errorf("topology: blueprint link %d (%d,%d) duplicated", i, u, v)
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// RewirePlan lists the physical cabling operations turning one topology
// into another: §4.2's expansion procedure promises rewiring limited to
// the ports being added, and §6.2 notes the moves "can be automatically
// identified" — this is that identification.
type RewirePlan struct {
	Remove []graph.Edge // cables present before but not after
	Add    []graph.Edge // cables present after but not before
}

// Moves returns the total number of cable operations.
func (p RewirePlan) Moves() int { return len(p.Remove) + len(p.Add) }

// PlanRewiring diffs two topologies' link sets. The switch ID spaces must
// be consistent (after may have more switches than before).
func PlanRewiring(before, after *Topology) RewirePlan {
	beforeSet := map[graph.Edge]bool{}
	for _, e := range before.Graph.Edges() {
		beforeSet[e] = true
	}
	var plan RewirePlan
	afterSet := map[graph.Edge]bool{}
	for _, e := range after.Graph.Edges() {
		afterSet[e] = true
		if !beforeSet[e] {
			plan.Add = append(plan.Add, e)
		}
	}
	for _, e := range before.Graph.Edges() {
		if !afterSet[e] {
			plan.Remove = append(plan.Remove, e)
		}
	}
	return plan
}
