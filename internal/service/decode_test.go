package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"jellyfish"
	"jellyfish/internal/topology"
)

// A decodePin is one request body at an edge of inline-blueprint
// decoding, posted to path.
type decodePin struct{ name, path, body string }

// decodePins lists the bodies TestInlineBlueprintDecodeGolden pins: key
// spellings, repeated members, values that are not blueprint documents,
// blueprints outside the one-pass grammar, blueprints where no topology
// spec takes them, trailing data, member order and loose whitespace.
func decodePins() []decodePin {
	compact := func(cfg jellyfish.Config) string {
		return string(jellyfish.New(cfg).AppendBlueprint(nil))
	}
	a := compact(jellyfish.Config{Switches: 12, Ports: 6, NetworkDegree: 4, Seed: 1})
	var indented bytes.Buffer
	if err := jellyfish.WriteBlueprint(jellyfish.New(jellyfish.Config{Switches: 12, Ports: 6, NetworkDegree: 4, Seed: 2}), &indented); err != nil {
		panic(err)
	}
	b := indented.String()
	loose := inlineBlueprint(jellyfish.Config{Switches: 12, Ports: 6, NetworkDegree: 4, Seed: 3}, "row 7")
	design := `{"switches":12,"ports":6,"networkDegree":4,"seed":1}`

	eval := func(topology string) string {
		return `{"topology":` + topology + `,"seed":3,"estimator":{"kind":"bisection"}}`
	}
	bp := func(key, value string) string { return `{"` + key + `":` + value + `}` }
	pins := []decodePin{
		{"evaluate/blueprint", "/v1/evaluate", eval(bp("blueprint", a))},
		{"evaluate/Blueprint", "/v1/evaluate", eval(bp("Blueprint", a))},
		{"evaluate/BLUEPRINT", "/v1/evaluate", eval(bp("BLUEPRINT", a))},
		{"evaluate/escaped-key", "/v1/evaluate", eval(bp(`blue\u0070rint`, a))},
		{"evaluate/escaped-dotless-i-key", "/v1/evaluate", eval(bp(`bluepr\u0131nt`, a))},
		{"evaluate/dotless-i-key", "/v1/evaluate", eval(bp(`blueprınt`, a))},
		{"evaluate/two-members", "/v1/evaluate", eval(`{"blueprint":` + a + `,"blueprint":` + b + `}`)},
		{"evaluate/two-members-Blueprint-first", "/v1/evaluate", eval(`{"Blueprint":` + a + `,"blueprint":` + b + `}`)},
		{"evaluate/two-members-BLUEPRINT-last", "/v1/evaluate", eval(`{"blueprint":` + a + `,"BLUEPRINT":` + b + `}`)},
		{"evaluate/null", "/v1/evaluate", eval(bp("blueprint", `null`))},
		{"evaluate/array", "/v1/evaluate", eval(bp("blueprint", `[]`))},
		{"evaluate/zero", "/v1/evaluate", eval(bp("blueprint", `0`))},
		{"evaluate/string", "/v1/evaluate", eval(bp("blueprint", `"s"`))},
		{"evaluate/empty-object", "/v1/evaluate", eval(bp("blueprint", `{}`))},
		{"evaluate/escaped-name", "/v1/evaluate", eval(bp("blueprint", strings.Replace(a, `"name":"`, `"name":"\u0062`, 1)))},
		{"evaluate/exponent", "/v1/evaluate", eval(bp("blueprint", strings.Replace(a, `"ports":[6,`, `"ports":[6e0,`, 1)))},
		{"evaluate/19-digits", "/v1/evaluate", eval(bp("blueprint", strings.Replace(a, `"servers":[2,`, `"servers":[1234567890123456789,`, 1)))},
		{"evaluate/self-loop", "/v1/evaluate", eval(bp("blueprint", strings.Replace(a, `"links":[[0,`, `"links":[[0,0],[0,`, 1)))},
		{"evaluate/unknown-field", "/v1/evaluate", `{"topology":{"blueprint":` + a + `},"seed":3,"extra":{"blueprint":` + a + `}}`},
		{"evaluate/unknown-in-topology", "/v1/evaluate", eval(`{"blueprint":` + a + `,"x":{"blueprint":` + b + `}}`)},
		{"evaluate/under-transport", "/v1/evaluate", `{"topology":{"blueprint":` + a + `},"seed":3,"transport":{"protocol":"tcp8","blueprint":` + a + `}}`},
		{"evaluate/with-design", "/v1/evaluate", eval(`{"design":` + design + `,"blueprint":` + a + `}`)},
		{"evaluate/trailing-document", "/v1/evaluate", eval(bp("blueprint", a)) + ` {"blueprint":` + a + `}`},
		{"evaluate/trailing-bracket", "/v1/evaluate", eval(bp("blueprint", a)) + "\n]"},
		{"evaluate/junk-after-blueprint", "/v1/evaluate", eval(`{"blueprint":` + a + ` x}`)},
		{"evaluate/truncated", "/v1/evaluate", eval(bp("blueprint", a))[:len(eval(bp("blueprint", a)))-60]},
		{"evaluate/loose", "/v1/evaluate", "\r\n{ \"topology\" :\t{ \"blueprint\" :\n" + loose + "\n } ,\n\"seed\" : 3 , \"estimator\":{ \"kind\" : \"bisection\" } }\n\t"},
		{"whatif/blueprint", "/v1/whatif", `{"base":{"blueprint":` + b + `},"seed":5,"scenarios":[{"failLinks":{"fraction":0.1,"seed":2}}]}`},
		{"whatif/BLUEPRINT", "/v1/whatif", `{"base":{"BLUEPRINT":` + b + `},"seed":5,"scenarios":[{"failLinks":{"fraction":0.1,"seed":2}}]}`},
		{"whatif/blueprint-in-scenario", "/v1/whatif", `{"base":{"blueprint":` + b + `},"seed":5,"scenarios":[{"blueprint":` + a + `}]}`},
		{"whatif/null", "/v1/whatif", `{"base":{"blueprint":null},"seed":5,"scenarios":[]}`},
		{"rewire/before-after", "/v1/rewire-plan", `{"before":{"blueprint":` + a + `},"after":{"blueprint":` + b + `}}`},
		{"rewire/after-before", "/v1/rewire-plan", `{"after":{"blueprint":` + b + `},"before":{"blueprint":` + a + `}}`},
		{"rewire/Blueprint", "/v1/rewire-plan", `{"before":{"Blueprint":` + a + `},"after":{"blueprint":` + b + `}}`},
		{"rewire/repeated-before", "/v1/rewire-plan", `{"before":{"blueprint":` + b + `},"after":{"blueprint":` + b + `},"before":{"blueprint":` + a + `}}`},
		{"rewire/design-before", "/v1/rewire-plan", `{"before":{"design":` + design + `},"after":{"blueprint":` + b + `}}`},
		{"rewire/string-after", "/v1/rewire-plan", `{"before":{"blueprint":` + a + `},"after":{"blueprint":"s"}}`},
		{"rewire/trailing", "/v1/rewire-plan", `{"before":{"blueprint":` + a + `},"after":{"blueprint":` + b + `}}` + "\n}"},
		{"rewire/loose", "/v1/rewire-plan", " {\n\t\"before\" : { \"blueprint\":" + loose + " } , \"after\" :{\"blueprint\" : " + b + "}\r\n}"},
		{"job/self-loop", "/v1/jobs", `{"type":"evaluate","request":` + eval(bp("blueprint", strings.Replace(a, `"links":[[0,`, `"links":[[0,0],[0,`, 1))) + `}`},
	}
	return pins
}

// Inline-blueprint request bodies pinned by response: the SHA-256 of a
// 200 body, or the exact status and body of a rejection. The decoder must
// give every one of them what encoding/json's strict decode gives.
func TestInlineBlueprintDecodeGolden(t *testing.T) {
	want := map[string]string{
		"evaluate/blueprint":                   `200 sha256:a860b60634e6fb8fbb46f2de8a73181869a4f8970d401950d8cf2c0f6607f6b0`,
		"evaluate/Blueprint":                   `200 sha256:a860b60634e6fb8fbb46f2de8a73181869a4f8970d401950d8cf2c0f6607f6b0`,
		"evaluate/BLUEPRINT":                   `200 sha256:a860b60634e6fb8fbb46f2de8a73181869a4f8970d401950d8cf2c0f6607f6b0`,
		"evaluate/escaped-key":                 `200 sha256:a860b60634e6fb8fbb46f2de8a73181869a4f8970d401950d8cf2c0f6607f6b0`,
		"evaluate/escaped-dotless-i-key":       `400 {"error":{"code":"invalid_json","message":"json: unknown field \"blueprınt\""}}`,
		"evaluate/dotless-i-key":               `400 {"error":{"code":"invalid_json","message":"json: unknown field \"blueprınt\""}}`,
		"evaluate/two-members":                 `200 sha256:31cf7bca3855312751c1fbd6b5a2ef76f9736dbb547faeb5d9389c142e5a8770`,
		"evaluate/two-members-Blueprint-first": `200 sha256:31cf7bca3855312751c1fbd6b5a2ef76f9736dbb547faeb5d9389c142e5a8770`,
		"evaluate/two-members-BLUEPRINT-last":  `200 sha256:31cf7bca3855312751c1fbd6b5a2ef76f9736dbb547faeb5d9389c142e5a8770`,
		"evaluate/null":                        `400 {"error":{"code":"invalid_blueprint","message":"blueprint describes no switches"}}`,
		"evaluate/array":                       `400 {"error":{"code":"invalid_blueprint","message":"topology: decoding blueprint: json: cannot unmarshal array into Go value of type topology.blueprint"}}`,
		"evaluate/zero":                        `400 {"error":{"code":"invalid_blueprint","message":"topology: decoding blueprint: json: cannot unmarshal number into Go value of type topology.blueprint"}}`,
		"evaluate/string":                      `400 {"error":{"code":"invalid_blueprint","message":"topology: decoding blueprint: json: cannot unmarshal string into Go value of type topology.blueprint"}}`,
		"evaluate/empty-object":                `400 {"error":{"code":"invalid_blueprint","message":"blueprint describes no switches"}}`,
		"evaluate/escaped-name":                `200 sha256:a860b60634e6fb8fbb46f2de8a73181869a4f8970d401950d8cf2c0f6607f6b0`,
		"evaluate/exponent":                    `400 {"error":{"code":"invalid_blueprint","message":"topology: decoding blueprint: json: cannot unmarshal number 6e0 into Go struct field blueprint.ports of type int"}}`,
		"evaluate/19-digits":                   `400 {"error":{"code":"invalid_blueprint","message":"topology \"jellyfish(n=12,k=6,r=4)\": switch 0 uses 1234567890123456793 ports, budget 6"}}`,
		"evaluate/self-loop":                   `400 {"error":{"code":"invalid_blueprint","message":"topology: blueprint link 0 is a self-loop at 0"}}`,
		"evaluate/unknown-field":               `400 {"error":{"code":"invalid_json","message":"json: unknown field \"extra\""}}`,
		"evaluate/unknown-in-topology":         `400 {"error":{"code":"invalid_json","message":"json: unknown field \"x\""}}`,
		"evaluate/under-transport":             `400 {"error":{"code":"invalid_json","message":"json: unknown field \"blueprint\""}}`,
		"evaluate/with-design":                 `400 {"error":{"code":"invalid_topology","message":"specify exactly one of \"design\" or \"blueprint\""}}`,
		"evaluate/trailing-document":           `400 {"error":{"code":"invalid_json","message":"trailing data after request document"}}`,
		"evaluate/trailing-bracket":            `400 {"error":{"code":"invalid_json","message":"trailing data after request document"}}`,
		"evaluate/junk-after-blueprint":        `400 {"error":{"code":"invalid_json","message":"invalid character 'x' after object key:value pair"}}`,
		"evaluate/truncated":                   `400 {"error":{"code":"invalid_json","message":"unexpected EOF"}}`,
		"evaluate/loose":                       `200 sha256:a860b60634e6fb8fbb46f2de8a73181869a4f8970d401950d8cf2c0f6607f6b0`,
		"whatif/blueprint":                     `200 sha256:eb70fc4ad44b2626f929a79b5da35e16c5e940e9aed1812450392a040c53966d`,
		"whatif/BLUEPRINT":                     `200 sha256:eb70fc4ad44b2626f929a79b5da35e16c5e940e9aed1812450392a040c53966d`,
		"whatif/blueprint-in-scenario":         `400 {"error":{"code":"invalid_json","message":"json: unknown field \"blueprint\""}}`,
		"whatif/null":                          `400 {"error":{"code":"invalid_blueprint","message":"blueprint describes no switches"}}`,
		"rewire/before-after":                  `200 sha256:0e62a10a9b5cf77f02f673e5a4018df256141559c0298163dc16fb391e7a73ec`,
		"rewire/after-before":                  `200 sha256:0e62a10a9b5cf77f02f673e5a4018df256141559c0298163dc16fb391e7a73ec`,
		"rewire/Blueprint":                     `200 sha256:0e62a10a9b5cf77f02f673e5a4018df256141559c0298163dc16fb391e7a73ec`,
		"rewire/repeated-before":               `200 sha256:0e62a10a9b5cf77f02f673e5a4018df256141559c0298163dc16fb391e7a73ec`,
		"rewire/design-before":                 `200 sha256:0e62a10a9b5cf77f02f673e5a4018df256141559c0298163dc16fb391e7a73ec`,
		"rewire/string-after":                  `400 {"error":{"code":"invalid_blueprint","message":"topology: decoding blueprint: json: cannot unmarshal string into Go value of type topology.blueprint"}}`,
		"rewire/trailing":                      `400 {"error":{"code":"invalid_json","message":"trailing data after request document"}}`,
		"rewire/loose":                         `200 sha256:a760e42de068032af23bfb9a518008083fb738577ae128e824526457b4ca7ca0`,
		"job/self-loop":                        `400 {"error":{"code":"invalid_blueprint","message":"topology: blueprint link 0 is a self-loop at 0"}}`,
	}
	ts, _ := newTestServer(t, Options{Workers: 2})
	for _, p := range decodePins() {
		status, body := doPost(t, ts.URL+p.path, p.body)
		got := fmt.Sprintf("%d %s", status, body)
		if status == http.StatusOK {
			got = fmt.Sprintf("200 sha256:%x", sha256.Sum256(body))
		}
		if got != want[p.name] {
			t.Errorf("%s: got %s, want %s", p.name, got, want[p.name])
		}
	}
}

// refDecodeStrict is encoding/json's strict decode, which decodeStrict
// ran alone before decodeInline stood in front of it; kept as its oracle.
func refDecodeStrict(data []byte, v any) *apiError {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("invalid_json", "%v", err)
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		return badRequest("invalid_json", "trailing data after request document")
	}
	return nil
}

// checkDecode fails unless decodeStrict and refDecodeStrict agree on data
// as a T: the same error, or equal requests with the same blueprint bytes,
// where every blueprint decodeStrict parsed on the way has the outcome
// topology.ParseBlueprint gives those bytes. It reports how many
// blueprints decodeStrict parsed.
func checkDecode[T any](t *testing.T, data []byte) (parsed int) {
	t.Helper()
	var got, want T
	aerr, werr := decodeStrict(data, &got), refDecodeStrict(data, &want)
	if aerr != nil || werr != nil {
		if aerr == nil || werr == nil || *aerr != *werr {
			t.Fatalf("%T %q: decodeStrict error %v, encoding/json error %v", got, data, aerr, werr)
		}
		return 0
	}
	if specs, ok := any(&got).(inlineSpecs); ok {
		wantSpecs := any(&want).(inlineSpecs).topologySpecs()
		for i, ts := range specs.topologySpecs() {
			if ts.top == nil && ts.topErr == nil {
				continue
			}
			parsed++
			top, err := topology.ParseBlueprint(wantSpecs[i].Blueprint)
			switch {
			case err != nil || ts.topErr != nil:
				if err == nil || ts.topErr == nil || err.Error() != ts.topErr.Error() {
					t.Fatalf("%T %q: blueprint %d parsed to error %v, ParseBlueprint gives %v", got, data, i, ts.topErr, err)
				}
			case ts.top.Name != top.Name || !reflect.DeepEqual(ts.top.Ports, top.Ports) ||
				!reflect.DeepEqual(ts.top.Servers, top.Servers) || !reflect.DeepEqual(ts.top.Graph.Edges(), top.Graph.Edges()):
				t.Fatalf("%T %q: blueprint %d parsed to another topology than ParseBlueprint's", got, data, i)
			}
			ts.top, ts.topErr = nil, nil
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: decodeStrict decoded %+v, encoding/json %+v", data, got, want)
	}
	return parsed
}

// checkDecodeAll runs checkDecode for every request type decodeStrict
// reads and returns how many blueprints it parsed on the way.
func checkDecodeAll(t *testing.T, data []byte) int {
	t.Helper()
	return checkDecode[DesignSpec](t, data) + checkDecode[EvaluateRequest](t, data) +
		checkDecode[CapacitySearchRequest](t, data) + checkDecode[WhatIfRequest](t, data) +
		checkDecode[RewireRequest](t, data) + checkDecode[JobSpec](t, data)
}

// FuzzDecodeStrict checks decodeStrict against encoding/json's strict
// decode on arbitrary bodies, for every request type.
func FuzzDecodeStrict(f *testing.F) {
	for _, body := range opPlanSeeds {
		f.Add([]byte(body))
	}
	for _, p := range decodePins() {
		f.Add([]byte(p.body))
	}
	f.Add([]byte(`{"topology":{"blueprint":{},"Blueprint":0},"seed":1}`))
	f.Add([]byte(`{"topology":{"blueprint":{},"blue\u0070rint":0},"seed":1}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeAll(t, body)
	})
}

// Bodies shaped like the hot workload's, 30 KB indented blueprints
// included, are decoded without encoding/json reading a blueprint, as
// are the pins with blueprints in the one-pass grammar wherever a
// topology spec takes them; bodies at the fast path's edges fall back.
// So the oracle above cannot pass by having everything fall back.
func TestDecodeStrictFastPath(t *testing.T) {
	var hot [2]string
	for i := range hot {
		var b bytes.Buffer
		if err := jellyfish.WriteBlueprint(jellyfish.New(jellyfish.Config{Switches: 200, Ports: 12, NetworkDegree: 8, Seed: uint64(i)}), &b); err != nil {
			t.Fatal(err)
		}
		hot[i] = b.String()
	}
	small := string(jellyfish.New(jellyfish.Config{Switches: 12, Ports: 6, NetworkDegree: 4, Seed: 1}).AppendBlueprint(nil))
	fast := []struct {
		body   string
		parsed int
	}{
		{`{"topology":{"blueprint":` + hot[0] + `},"seed":1099511627775,"estimator":{"kind":"bisection"}}`, 1},
		{`{"before":{"blueprint":` + hot[0] + `},"after":{"blueprint":` + hot[1] + `}}`, 2},
	}
	for _, tc := range fast {
		if got := checkDecodeAll(t, []byte(tc.body)); got != tc.parsed {
			t.Errorf("%.120q: %d blueprints parsed while decoding, want %d", tc.body, got, tc.parsed)
		}
	}
	// The pins that take the fast path, with their blueprint counts; the
	// rest must fall back.
	fastPins := map[string]int{
		"evaluate/blueprint": 1, "evaluate/empty-object": 1, "evaluate/self-loop": 1, "evaluate/with-design": 1,
		"evaluate/loose": 1, "whatif/blueprint": 1, "rewire/before-after": 2, "rewire/after-before": 2,
		"rewire/design-before": 1, "rewire/loose": 2,
	}
	for _, p := range decodePins() {
		if got := checkDecodeAll(t, []byte(p.body)); got != fastPins[p.name] {
			t.Errorf("%s: %d blueprints parsed while decoding, want %d", p.name, got, fastPins[p.name])
		}
	}
	for _, body := range []string{
		`{"topology":{"blueprint":` + small + `},"seed":1,"trails":3}`,
		`{"before":{"blueprint":` + small + `},"after":{"blueprint":` + small + `}} x`,
		`{"topology":{"blueprint":{"ports":[4,4],"servers":[1,1],"links":[[0,1]],"extra":1}},"seed":1}`,
		`{"type":"evaluate","request":{"topology":{"blueprint":` + small + `},"seed":1}}`,
		// An index-like value under a case-folded key must not pass for
		// the blueprint's placeholder.
		`{"topology":{"blueprint":` + small + `,"Blueprint":0},"seed":1}`,
		`{"before":{"blueprint":` + small + `,"BluePrint":0},"after":{"design":{"switches":4,"ports":4,"networkDegree":2,"seed":1}}}`,
		`{"topology":{"blueprint":` + small + `,"blue\u0070rint":0},"seed":1}`,
	} {
		if got := checkDecodeAll(t, []byte(body)); got != 0 {
			t.Errorf("%.120q: %d blueprints parsed while decoding, want 0", body, got)
		}
	}
}
