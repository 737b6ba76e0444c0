package topology

import (
	"bytes"
	"encoding/json"
	"strings"
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
	got, err := ReadBlueprint(&buf)
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
	got, err := ReadBlueprint(&buf)
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
		if _, err := ReadBlueprint(strings.NewReader(in)); err == nil {
			t.Errorf("%s: no error", name)
		}
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
