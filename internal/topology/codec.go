package topology

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

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

// ParseBlueprint decodes a blueprint document, as WriteBlueprint or
// AppendBlueprint writes it, and validates its structural invariants
// (port budgets, simple graph, ID range). Like a json.Decoder, it reads
// the first JSON value in data and ignores any bytes after it.
//
// A document in the strict grammar parseBlueprint accepts is read in one
// pass over data. Any other input is handed to encoding/json unchanged,
// so every rejection, its error text and every encoding/json quirk
// (case-folded and unknown keys, escapes, short or long links) stay
// encoding/json's.
func ParseBlueprint(data []byte) (*Topology, error) {
	if n, t, err := ParseBlueprintPrefix(data); n > 0 {
		return t, err
	}
	var bp blueprint
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&bp); err != nil {
		return nil, fmt.Errorf("topology: decoding blueprint: %w", err)
	}
	return bp.topology()
}

// ParseBlueprintPrefix reads the blueprint document at the start of data,
// which may go on past it, in parseBlueprint's one-pass grammar. It
// returns the number of bytes the document takes, leading whitespace
// included, with what ParseBlueprint returns for those bytes: the
// validated topology or the error. If data does not open with a document
// in the grammar, n is 0 and nothing is parsed.
func ParseBlueprintPrefix(data []byte) (n int, t *Topology, err error) {
	var bp blueprint
	if n = parseBlueprint(data, &bp); n == 0 {
		return 0, nil, nil
	}
	t, err = bp.topology()
	return n, t, err
}

// topology validates a decoded blueprint and builds its topology.
func (bp *blueprint) topology() (*Topology, error) {
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

// parseBlueprint fills bp from data in one pass and reports whether data
// opens with a document in its grammar, a strict subset of what
// encoding/json decodes to the same blueprint: one object whose keys are
// exactly "name", "ports", "servers" and "links", each at most once and in
// any order; a name without escapes or control characters, in valid
// UTF-8 (which encoding/json keeps byte for byte); integers of at most 18
// digits without a leading zero, fraction or exponent; null or an array
// for each list, so nil and empty stay apart; and links of exactly two
// integers. Bytes after the closing brace are not read. It returns the
// number of bytes read, through the closing brace, or 0 for input outside
// the grammar; then bp holds a partial document and the caller decodes
// data afresh.
func parseBlueprint(data []byte, bp *blueprint) int {
	s := bpScanner{data: data}
	if !s.consume('{') {
		return 0
	}
	if s.consume('}') {
		return s.i
	}
	var seen uint8
	for {
		key, ok := s.str()
		if !ok || !s.consume(':') {
			return 0
		}
		var field uint8
		switch string(key) {
		case "name":
			var name []byte
			name, ok = s.str()
			field, bp.Name, ok = 1, string(name), ok && utf8.Valid(name)
		case "ports":
			field = 2
			bp.Ports, ok = s.ints()
		case "servers":
			field = 4
			bp.Servers, ok = s.ints()
		case "links":
			field = 8
			bp.Links, ok = s.links()
		}
		if field == 0 || !ok || seen&field != 0 {
			return 0
		}
		seen |= field
		if s.consume('}') {
			return s.i
		}
		if !s.consume(',') {
			return 0
		}
	}
}

// bpScanner is parseBlueprint's cursor. Each method reports false on
// anything outside the grammar, leaving the input to encoding/json.
type bpScanner struct {
	data []byte
	i    int
}

// consume skips JSON whitespace and then the byte c, reporting whether c
// was there.
func (s *bpScanner) consume(c byte) bool {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
			continue
		case c:
			s.i++
			return true
		}
		return false
	}
	return false
}

// str reads a string without escapes or control characters and returns
// its bytes, unquoted.
func (s *bpScanner) str() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	for j := s.i; j < len(s.data); j++ {
		switch c := s.data[j]; {
		case c == '"':
			str := s.data[s.i:j]
			s.i = j + 1
			return str, true
		case c == '\\' || c < ' ':
			return nil, false
		}
	}
	return nil, false
}

// null consumes a null literal, reporting whether there was one.
func (s *bpScanner) null() bool {
	if s.consume('n') && bytes.HasPrefix(s.data[s.i:], []byte("ull")) {
		s.i += len("ull")
		return true
	}
	return false
}

// int reads an integer of at most 18 digits without a leading zero. The
// byte after it is left to the caller, which accepts only ',' or ']'
// there, so a fraction or an exponent falls outside the grammar.
func (s *bpScanner) int() (int, bool) {
	neg := s.consume('-')
	start := s.i
	var v uint64
	for s.i < len(s.data) && s.data[s.i] >= '0' && s.data[s.i] <= '9' {
		v = v*10 + uint64(s.data[s.i]-'0')
		s.i++
	}
	digits := s.i - start
	if digits == 0 || digits > 18 || (digits > 1 && s.data[start] == '0') || v > math.MaxInt {
		return 0, false
	}
	if neg {
		return -int(v), true
	}
	return int(v), true
}

// ints reads null, as a nil slice, or an array of integers.
func (s *bpScanner) ints() ([]int, bool) {
	if s.null() {
		return nil, true
	}
	if !s.consume('[') {
		return nil, false
	}
	xs := []int{}
	if s.consume(']') {
		return xs, true
	}
	for {
		x, ok := s.int()
		if !ok {
			return nil, false
		}
		xs = append(xs, x)
		if s.consume(']') {
			return xs, true
		}
		if !s.consume(',') {
			return nil, false
		}
	}
}

// links reads null, as a nil slice, or an array of two-integer arrays.
func (s *bpScanner) links() ([][2]int, bool) {
	if s.null() {
		return nil, true
	}
	if !s.consume('[') {
		return nil, false
	}
	ls := [][2]int{}
	if s.consume(']') {
		return ls, true
	}
	for {
		if !s.consume('[') {
			return nil, false
		}
		u, ok := s.int()
		if !ok || !s.consume(',') {
			return nil, false
		}
		v, ok := s.int()
		if !ok || !s.consume(']') {
			return nil, false
		}
		ls = append(ls, [2]int{u, v})
		if s.consume(']') {
			return ls, true
		}
		if !s.consume(',') {
			return nil, false
		}
	}
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
