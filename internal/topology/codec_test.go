package topology

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"jellyfish/internal/graph"
	"jellyfish/internal/rng"
)

// reflectBlueprint is the reflection encoder AppendBlueprint replaces,
// kept as its oracle: the blueprint document built field by field and
// handed to encoding/json.
func reflectBlueprint(t *Topology) blueprint {
	bp := blueprint{Name: t.Name, Ports: t.Ports, Servers: t.Servers, Links: make([][2]int, 0, t.Graph.M())}
	for _, e := range t.Graph.Edges() {
		bp.Links = append(bp.Links, [2]int{e.U, e.V})
	}
	return bp
}

// checkBlueprintEncoding fails unless AppendBlueprint writes exactly
// json.Marshal's bytes for the document and WriteBlueprint writes
// exactly what an indenting json.Encoder does, which is the compact
// form passed through json.Indent plus a newline.
func checkBlueprintEncoding(t *testing.T, top *Topology) {
	t.Helper()
	want, err := json.Marshal(reflectBlueprint(top))
	if err != nil {
		t.Fatal(err)
	}
	got := top.AppendBlueprint([]byte("prefix"))
	if !bytes.Equal(got[len("prefix"):], want) || string(got[:len("prefix")]) != "prefix" {
		t.Fatalf("AppendBlueprint:\n%q\njson.Marshal:\n%q", got, want)
	}
	var indented bytes.Buffer
	enc := json.NewEncoder(&indented)
	enc.SetIndent("", "  ")
	if err := enc.Encode(reflectBlueprint(top)); err != nil {
		t.Fatal(err)
	}
	var viaIndent bytes.Buffer
	if err := json.Indent(&viaIndent, want, "", "  "); err != nil {
		t.Fatal(err)
	}
	viaIndent.WriteByte('\n')
	var written bytes.Buffer
	if err := top.WriteBlueprint(&written); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written.Bytes(), indented.Bytes()) || !bytes.Equal(written.Bytes(), viaIndent.Bytes()) {
		t.Fatalf("WriteBlueprint:\n%q\nindenting encoder:\n%q\nIndent(compact)+newline:\n%q",
			written.Bytes(), indented.Bytes(), viaIndent.Bytes())
	}
}

// The hand-written blueprint encoder against encoding/json, on each
// constructor family and on the corners a decoder never produces: nil
// Ports and Servers, no switches, no links, and names that need every
// kind of escape, invalid UTF-8 included.
func TestBlueprintEncoderMatchesReflection(t *testing.T) {
	tops := []*Topology{
		Jellyfish(25, 10, 6, rng.New(1)),
		JellyfishHeterogeneous([]int{8, 8, 16, 16}, []int{2, 2, 4, 4}, rng.New(2)),
		FatTree(4),
		{Name: "empty", Graph: graph.New(0)},
		{Name: "no links", Graph: graph.New(3), Ports: []int{2, 2, 2}},
		{Graph: graph.New(2), Ports: []int{}, Servers: []int{}},
	}
	for _, name := range []string{
		"<fab&row>", "\u2028\u2029", "\xff\xfe invalid", `"quoted" \ back/slash`,
		"\x00\x01\t\n\r\x1f\x7f", "ünïcødé ✓", "\xed\xa0\x80 surrogate",
	} {
		top := Jellyfish(6, 4, 2, rng.New(3))
		top.Name = name
		tops = append(tops, top)
	}
	for _, top := range tops {
		checkBlueprintEncoding(t, top)
	}
}

func TestBlueprintRoundTrip(t *testing.T) {
	orig := Jellyfish(25, 10, 6, rng.New(1))
	var buf bytes.Buffer
	if err := orig.WriteBlueprint(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseBlueprint(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name || got.NumServers() != orig.NumServers() {
		t.Fatalf("metadata mismatch: %s vs %s", got, orig)
	}
	eo, eg := orig.Graph.Edges(), got.Graph.Edges()
	if len(eo) != len(eg) {
		t.Fatalf("edge counts differ: %d vs %d", len(eo), len(eg))
	}
	for i := range eo {
		if eo[i] != eg[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

// The megascale codec bar: a 10k-switch blueprint survives a full
// write/read/validate/diff cycle. Gated out of -short; CI runs it in the
// scale-smoke job.
func TestBlueprintRoundTrip10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k round-trip skipped in -short")
	}
	src := rng.New(21)
	orig := Jellyfish(10000, 12, 9, src)
	var buf bytes.Buffer
	if err := orig.WriteBlueprint(&buf); err != nil {
		t.Fatal(err)
	}
	t.Logf("10k-switch blueprint: %d bytes", buf.Len())
	got, err := ParseBlueprint(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if got.NumSwitches() != orig.NumSwitches() || got.NumServers() != orig.NumServers() ||
		got.NumLinks() != orig.NumLinks() {
		t.Fatalf("dims differ: %s vs %s", got, orig)
	}
	eo, eg := orig.Graph.Edges(), got.Graph.Edges()
	for i := range eo {
		if eo[i] != eg[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, eo[i], eg[i])
		}
	}
	// The decoded copy is diff-identical to the original, and a one-switch
	// expansion of it yields a bounded rewiring plan, as at small scale.
	if moves := PlanRewiring(orig, got).Moves(); moves != 0 {
		t.Fatalf("round-trip diff has %d moves", moves)
	}
	after := got.Clone()
	ExpandJellyfish(after, 1, 12, 9, src.Split("grow"))
	if plan := PlanRewiring(got, after); len(plan.Add) > 9 || len(plan.Remove) > 4 {
		t.Fatalf("10k expansion plan out of bounds: %d added, %d removed", len(plan.Add), len(plan.Remove))
	}
}

func TestReadBlueprintRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":       "{",
		"length":         `{"ports":[4,4],"servers":[1],"links":[]}`,
		"out of range":   `{"ports":[4,4],"servers":[1,1],"links":[[0,5]]}`,
		"self loop":      `{"ports":[4,4],"servers":[1,1],"links":[[1,1]]}`,
		"duplicate link": `{"ports":[4,4],"servers":[1,1],"links":[[0,1],[1,0]]}`,
		"port overflow":  `{"ports":[1,4,4],"servers":[1,1,1],"links":[[0,1],[0,2]]}`,
	}
	for name, in := range cases {
		if _, err := ParseBlueprint([]byte(in)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// readBlueprintString runs the blueprint decoder on an in-memory
// document.
func readBlueprintString(s string) (*Topology, error) {
	return ParseBlueprint([]byte(s))
}

// The decoder's error texts reach clients verbatim (jellyfishd's 400
// bodies), so each one is pinned, as is what the decoder makes of every
// input encoding/json accepts that a strict grammar would not.
func TestReadBlueprintErrorTexts(t *testing.T) {
	const pre = "topology: decoding blueprint: "
	rejected := []struct{ in, err string }{
		{``, pre + "EOF"},
		{`{"ports":[4,4`, pre + "unexpected EOF"},
		{`{"name":5}`, pre + "json: cannot unmarshal number into Go struct field blueprint.name of type string"},
		{`{"ports":[true]}`, pre + "json: cannot unmarshal bool into Go struct field blueprint.ports of type int"},
		{`{"links":[["a",1]]}`, pre + "json: cannot unmarshal string into Go struct field blueprint.links of type int"},
		{`{"links":[0,1]}`, pre + "json: cannot unmarshal number into Go struct field blueprint.links of type [2]int"},
		{`{"ports":[1.0]}`, pre + "json: cannot unmarshal number 1.0 into Go struct field blueprint.ports of type int"},
		{`{"ports":[1e2]}`, pre + "json: cannot unmarshal number 1e2 into Go struct field blueprint.ports of type int"},
		{`{"ports":[01]}`, pre + "invalid character '1' after array element"},
		{`{"ports":[-01]}`, pre + "invalid character '1' after array element"},
		{`{"ports":[12345678901234567890]}`, pre + "json: cannot unmarshal number 12345678901234567890 into Go struct field blueprint.ports of type int"},
		{`{"ports":"x"}`, pre + "json: cannot unmarshal string into Go struct field blueprint.ports of type []int"},
		{`[1,2]`, pre + "json: cannot unmarshal array into Go value of type topology.blueprint"},
		{`{"ports":[4,4],"servers":[1],"links":[]}`, "topology: blueprint has 2 port entries but 1 server entries"},
		{`{"ports":[4,4],"servers":[1,1],"links":[[0,1],[0,5]]}`, "topology: blueprint link 1 (0,5) out of range [0,2)"},
		{`{"ports":[4,4],"servers":[1,1],"links":[[0,1],[-1,0]]}`, "topology: blueprint link 1 (-1,0) out of range [0,2)"},
		{`{"ports":[4,4,4],"servers":[1,1,1],"links":[[0,1],[2,2]]}`, "topology: blueprint link 1 is a self-loop at 2"},
		{`{"ports":[4,4,4],"servers":[1,1,1],"links":[[0,1],[1,2],[2,1]]}`, "topology: blueprint link 2 (2,1) duplicated"},
		{`{"ports":[1,4,4],"servers":[1,1,1],"links":[[0,1],[0,2]]}`, `topology "": switch 0 uses 3 ports, budget 1`},
		{`{"name":"x","ports":[-1],"servers":[-1],"links":[]}`, `topology "x": switch 0 has negative servers`},
	}
	for _, tc := range rejected {
		top, err := readBlueprintString(tc.in)
		if err == nil {
			t.Errorf("%q: accepted as %v, want error %q", tc.in, top, tc.err)
		} else if err.Error() != tc.err {
			t.Errorf("%q: error %q, want %q", tc.in, err.Error(), tc.err)
		}
	}
	none, one := []graph.Edge{}, []graph.Edge{{U: 0, V: 1}}
	accepted := []struct {
		in             string
		name           string
		ports, servers []int
		edges          []graph.Edge
	}{
		{`{"ports":[2,2],"servers":[1,1],"links":[[0,1]]} trailing`, "", []int{2, 2}, []int{1, 1}, one},
		{`{"ports":[2,2],"servers":[1,1],"links":[[0,1]]}]`, "", []int{2, 2}, []int{1, 1}, one},
		{`{"extra":{"a":[1]},"ports":[2,2],"servers":[1,1],"links":[[0,1]]}`, "", []int{2, 2}, []int{1, 1}, one},
		{`{"Ports":[2,2],"SERVERS":[1,1],"Links":[[0,1]],"NAME":"up"}`, "up", []int{2, 2}, []int{1, 1}, one},
		{`{"ports":[9,9,9],"ports":[2,2],"servers":[1,1],"links":[[0,1]],"links":null}`, "", []int{2, 2}, []int{1, 1}, none},
		{`{"ports":[2,2],"servers":[1,1],"links":[[0,1,7]]}`, "", []int{2, 2}, []int{1, 1}, one},
		{`{"ports":[2,2],"servers":[1,1],"links":[[1]]}`, "", []int{2, 2}, []int{1, 1}, one},
		{`null`, "", nil, nil, none},
		{`{"name":null,"ports":null,"servers":null,"links":null}`, "", nil, nil, none},
		{`{"ports":[2,2],"servers":[-0,1],"links":[[-0,1]]}`, "", []int{2, 2}, []int{0, 1}, one},
		{`{"name":"n\u00e9\t\"q\"","ports":[],"servers":[],"links":[]}`, "n\u00e9\t\"q\"", []int{}, []int{}, none},
	}
	for _, tc := range accepted {
		top, err := readBlueprintString(tc.in)
		if err != nil {
			t.Errorf("%q: %v", tc.in, err)
			continue
		}
		if top.Name != tc.name || !reflect.DeepEqual(top.Ports, tc.ports) || !reflect.DeepEqual(top.Servers, tc.servers) ||
			!reflect.DeepEqual(top.Graph.Edges(), tc.edges) {
			t.Errorf("%q: decoded name %q ports %#v servers %#v edges %v, want %q %#v %#v %v",
				tc.in, top.Name, top.Ports, top.Servers, top.Graph.Edges(), tc.name, tc.ports, tc.servers, tc.edges)
		}
	}
}

// The one-pass parser takes every document the encoders write, in any
// whitespace and key order, and leaves each quirk to encoding/json.
func TestParseBlueprintGrammar(t *testing.T) {
	top := Jellyfish(30, 8, 5, rng.New(4))
	top.Name = "row 7 ✓"
	var indented bytes.Buffer
	if err := top.WriteBlueprint(&indented); err != nil {
		t.Fatal(err)
	}
	in := []string{
		string(indented.Bytes()),
		string(top.AppendBlueprint(nil)),
		`{}`,
		`{"links":null,"servers":[],"name":"","ports":[]} trailing`,
		" \t\r\n{ \"ports\" : [ -0 , 123456789012345678 ] , \"links\" :[ [ 0 , 1 ] ] }",
	}
	out := []string{
		`null`, `[]`, "\ufeff{}", `{"ports":[01]}`, `{"ports":[1234567890123456789]}`, `{"ports":[1.0]}`,
		`{"ports":[1e2]}`, `{"ports":[- 1]}`, `{"Ports":[]}`, `{"extra":1}`, `{"ports":[],"ports":[]}`,
		`{"links":[[0,1,2]]}`, `{"links":[[0]]}`, `{"links":[null]}`, `{"name":null}`, `{"name":"a\\u0062"}`,
		"{\"name\":\"\x01\"}", "{\"name\":\"\xff\"}", `{"ports":nul}`, `{"ports":[1,]}`, `{"ports":[1 2]}`,
		`{"name":"a",}`, `{"name":"a"`, `{"n\u0061me":"a"}`,
	}
	for _, s := range in {
		var bp blueprint
		if parseBlueprint([]byte(s), &bp) == 0 {
			t.Errorf("%q: outside the one-pass grammar", s)
		}
		checkParseMatchesReference(t, []byte(s))
		checkPrefix(t, []byte(s))
	}
	for _, s := range out {
		var bp blueprint
		if parseBlueprint([]byte(s), &bp) != 0 {
			t.Errorf("%q: inside the one-pass grammar", s)
		}
		checkParseMatchesReference(t, []byte(s))
		checkPrefix(t, []byte(s))
	}
}

func TestPlanRewiringExpansion(t *testing.T) {
	src := rng.New(3)
	before := Jellyfish(20, 12, 6, src)
	after := before.Clone()
	ExpandJellyfish(after, 1, 12, 6, src.Split("grow"))

	plan := PlanRewiring(before, after)
	// One new switch with r=6: three splices = 3 removed, 6 added cables.
	if len(plan.Add) < 4 || len(plan.Add) > 6 {
		t.Fatalf("added cables = %d, want 4-6", len(plan.Add))
	}
	if len(plan.Remove)*2 != len(plan.Add) {
		t.Fatalf("remove/add mismatch: %d removed, %d added", len(plan.Remove), len(plan.Add))
	}
	// Every added cable touches the new switch.
	for _, e := range plan.Add {
		if e.U != 20 && e.V != 20 {
			t.Fatalf("added cable %v does not touch new switch", e)
		}
	}
	if plan.Moves() != len(plan.Add)+len(plan.Remove) {
		t.Fatal("Moves() wrong")
	}
}

func TestPlanRewiringIdentical(t *testing.T) {
	top := Jellyfish(15, 8, 4, rng.New(5))
	plan := PlanRewiring(top, top)
	if plan.Moves() != 0 {
		t.Fatalf("self-diff has %d moves", plan.Moves())
	}
}

// §4.2's promise: expansion rewiring is limited to the ports being added.
func TestExpansionRewiringBounded(t *testing.T) {
	src := rng.New(7)
	before := Jellyfish(50, 24, 12, src)
	after := before.Clone()
	const added = 5
	ExpandJellyfish(after, added, 24, 12, src.Split("grow"))
	plan := PlanRewiring(before, after)
	// Each new switch adds ≤ r cables and removes ≤ r/2.
	if len(plan.Add) > added*12 {
		t.Fatalf("added %d cables for %d switches of degree 12", len(plan.Add), added)
	}
	if len(plan.Remove) > added*6 {
		t.Fatalf("removed %d cables, want ≤ %d", len(plan.Remove), added*6)
	}
}
