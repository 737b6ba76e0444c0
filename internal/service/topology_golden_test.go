package service

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"jellyfish"
)

// escapingName needs every kind of escape a blueprint name can carry, as
// raw JSON string content: HTML-sensitive characters raw and escaped, a
// raw and an escaped U+2028, raw invalid UTF-8, an escaped lone
// surrogate, quotes, backslashes, an escaped slash and control
// characters.
const escapingName = "<fab&row>\\u003c\\u0026  \\u2029 \xff\xfe\\ud800 \\\"q\\\" \\\\ \\/ \\u0001\\t\\n\\u001f"

// inlineBlueprint writes a design's blueprint by hand with the given
// name and loose whitespace, so canonicalization has work to do.
func inlineBlueprint(cfg jellyfish.Config, name string) string {
	top := jellyfish.New(cfg)
	ints := func(xs []int) string {
		parts := make([]string, len(xs))
		for i, x := range xs {
			parts[i] = fmt.Sprint(x)
		}
		return "[ " + strings.Join(parts, " ,\t") + " ]"
	}
	links := make([]string, 0, top.NumLinks())
	for _, e := range top.Graph.Edges() {
		links = append(links, fmt.Sprintf("[%d,  %d]", e.U, e.V))
	}
	return fmt.Sprintf("{\r\n  \"name\" :\t\"%s\",\n\"ports\": %s ,\n \"servers\":%s,\"links\" : [\n%s\n] }",
		name, ints(top.Ports), ints(top.Servers), strings.Join(links, ",\n  "))
}

// The topology-answering endpoints pinned byte for byte: the SHA-256 of
// /v1/design bodies for designs whose switch counts straddle the 64-,
// 128- and 192-source batch edges (path stats plus blueprint), and of
// /v1/rewire-plan and bisection /v1/evaluate bodies over hand-written
// inline blueprints with loose whitespace and names that need escaping,
// together with the canonical blueprint bytes those requests digest.
func TestTopologyResponsesGolden(t *testing.T) {
	const (
		wantDesign = "2c57a0fefcced7601b935a8986aa7432a5e9d6abdc99fafb1371bdcd74f5f258"
		wantInline = "a3aaaeae98637907ca345091f653cda8dff955b7310465cb948a6165c5714d4c"
	)
	ts, _ := newTestServer(t, Options{Workers: 2})

	h := sha256.New()
	for _, d := range []struct{ switches, ports, degree int }{
		{5, 4, 2}, {20, 5, 5}, {63, 8, 5}, {64, 8, 5}, {65, 8, 5}, {100, 12, 8},
		{127, 8, 6}, {128, 8, 6}, {129, 8, 6}, {191, 10, 7}, {192, 10, 7},
		{193, 10, 7}, {255, 12, 8}, {300, 12, 8},
	} {
		body := mustPost(t, ts.URL+"/v1/design", fmt.Sprintf(
			`{"switches":%d,"ports":%d,"networkDegree":%d,"seed":%d}`, d.switches, d.ports, d.degree, d.switches))
		fmt.Fprintf(h, "%d %s\n", d.switches, body)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != wantDesign {
		t.Errorf("/v1/design bodies: sha256 %s, want %s", got, wantDesign)
	}

	h = sha256.New()
	before := jellyfish.Config{Switches: 24, Ports: 8, NetworkDegree: 5, Seed: 4}
	after := jellyfish.Config{Switches: 24, Ports: 8, NetworkDegree: 5, Seed: 5}
	for _, name := range []string{"", escapingName, strings.Repeat(escapingName, 3)} {
		bpBefore, bpAfter := inlineBlueprint(before, name), inlineBlueprint(after, name)
		for _, bp := range []string{bpBefore, bpAfter} {
			spec := TopologySpec{Blueprint: []byte(bp)}
			if _, aerr := spec.materialize(); aerr != nil {
				t.Fatalf("materializing %q: %v", name, aerr)
			}
			fmt.Fprintf(h, "canonical %s\n", spec.Blueprint)
		}
		body := mustPost(t, ts.URL+"/v1/rewire-plan", fmt.Sprintf(
			`{"before":{"blueprint":%s},"after":{"blueprint":%s}}`, bpBefore, bpAfter))
		fmt.Fprintf(h, "rewire %s\n", body)
		body = mustPost(t, ts.URL+"/v1/evaluate", fmt.Sprintf(
			`{"topology":{"blueprint":%s},"seed":3,"trials":2,"estimator":{"kind":"bisection"}}`, bpBefore))
		fmt.Fprintf(h, "evaluate %s\n", body)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != wantInline {
		t.Errorf("inline-blueprint bodies: sha256 %s, want %s", got, wantInline)
	}
}

// DesignResponse's appender writes json.Marshal's bytes, or its error
// text, for a nil blueprint, canonical blueprints with names that need
// escaping, and a NaN mean path.
func TestDesignResponseAppendMatchesMarshal(t *testing.T) {
	blueprints := []json.RawMessage{nil}
	for i, name := range []string{"row 7", "<fab&row>  \xff\"\\/\x01", escapingName} {
		top := jellyfish.New(jellyfish.Config{Switches: 6 + i, Ports: 4, NetworkDegree: 3, Seed: uint64(i)})
		top.Name = name
		blueprints = append(blueprints, canonicalBlueprint(top))
	}
	for _, bp := range blueprints {
		for _, f := range []float64{0, 2.0 / 3, 1e-7, math.NaN()} {
			resp := &DesignResponse{Switches: 9, Servers: 12, Links: -1, MeanPath: f, Diameter: 3, Blueprint: bp}
			want, werr := json.Marshal(resp)
			got, err := resp.appendJSON([]byte("prefix"))
			if werr != nil || err != nil {
				if werr == nil || err == nil || err.Error() != werr.Error() {
					t.Fatalf("%+v: appender error %v, json.Marshal error %v", resp, err, werr)
				}
				continue
			}
			if string(got) != "prefix"+string(want) {
				t.Fatalf("appender wrote\n%s\njson.Marshal wrote\n%s", got, want)
			}
		}
	}
}
