package topology

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"jellyfish/internal/rng"
)

// refReadBlueprint is the encoding/json decoder ParseBlueprint's
// one-pass parser stands in front of, kept as its oracle.
func refReadBlueprint(data []byte) (*Topology, error) {
	var bp blueprint
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&bp); err != nil {
		return nil, fmt.Errorf("topology: decoding blueprint: %w", err)
	}
	return bp.topology()
}

// checkParseMatchesReference fails unless ParseBlueprint and the
// encoding/json reference agree on data: the same error text, or the
// same name, ports and servers (nil-ness included) and edges.
func checkParseMatchesReference(t *testing.T, data []byte) {
	t.Helper()
	got, err := ParseBlueprint(data)
	want, werr := refReadBlueprint(data)
	if err != nil || werr != nil {
		if err == nil || werr == nil || err.Error() != werr.Error() {
			t.Fatalf("%q: ParseBlueprint error %v, encoding/json error %v", data, err, werr)
		}
		return
	}
	if got.Name != want.Name || !reflect.DeepEqual(got.Ports, want.Ports) || !reflect.DeepEqual(got.Servers, want.Servers) ||
		!reflect.DeepEqual(got.Graph.Edges(), want.Graph.Edges()) {
		t.Fatalf("%q: ParseBlueprint decoded name %q ports %#v servers %#v edges %v; encoding/json %q %#v %#v %v",
			data, got.Name, got.Ports, got.Servers, got.Graph.Edges(), want.Name, want.Ports, want.Servers, want.Graph.Edges())
	}
}

// checkPrefix fails unless ParseBlueprintPrefix on data, and on data
// with bytes after it, reads the same document of n bytes, ending in its
// closing brace, to the outcome ParseBlueprint gives those n bytes.
func checkPrefix(t *testing.T, data []byte) {
	t.Helper()
	n, top, err := ParseBlueprintPrefix(data)
	if n == 0 {
		if top != nil || err != nil {
			t.Fatalf("%q: outside the grammar, yet parsed to %v, %v", data, top, err)
		}
		return
	}
	if data[n-1] != '}' {
		t.Fatalf("%q: prefix of %d bytes does not end in a closing brace", data, n)
	}
	if m, _, _ := ParseBlueprintPrefix(append(data[:n:n], `,"x"]`...)); m != n {
		t.Fatalf("%q: prefix of %d bytes, %d with bytes after it", data, n, m)
	}
	want, werr := ParseBlueprint(data[:n])
	if err != nil || werr != nil {
		if err == nil || werr == nil || err.Error() != werr.Error() {
			t.Fatalf("%q: prefix error %v, ParseBlueprint error %v", data, err, werr)
		}
		return
	}
	if top.Name != want.Name || !reflect.DeepEqual(top.Ports, want.Ports) || !reflect.DeepEqual(top.Servers, want.Servers) ||
		!reflect.DeepEqual(top.Graph.Edges(), want.Graph.Edges()) {
		t.Fatalf("%q: prefix and ParseBlueprint decode different topologies", data)
	}
}

// FuzzReadBlueprint drives the decoder with arbitrary bytes: it must
// agree with the encoding/json reference on every input, and anything it
// accepts must be a valid topology that re-encodes to a decodable,
// structurally identical blueprint, through an encoder that writes
// encoding/json's bytes.
func FuzzReadBlueprint(f *testing.F) {
	// Seed corpus: real blueprints of each constructor family, the
	// rejection cases the unit tests pin, and the edges of the one-pass
	// grammar.
	for _, top := range []*Topology{
		Jellyfish(12, 6, 4, rng.New(1)),
		JellyfishHeterogeneous([]int{8, 8, 16, 16}, []int{2, 2, 4, 4}, rng.New(2)),
		FatTree(4),
	} {
		var buf bytes.Buffer
		if err := top.WriteBlueprint(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(top.AppendBlueprint(nil))
	}
	for _, s := range []string{
		"{",
		`{"ports":[4,4],"servers":[1],"links":[]}`,
		`{"ports":[4,4],"servers":[1,1],"links":[[0,5]]}`,
		`{"ports":[4,4],"servers":[1,1],"links":[[1,1]]}`,
		`{"ports":[4,4],"servers":[1,1],"links":[[0,1],[1,0]]}`,
		`{"ports":[1,4,4],"servers":[1,1,1],"links":[[0,1],[0,2]]}`,
		`{"name":"x","ports":[-1],"servers":[-1],"links":[]}`,
		`{"ports":[],"servers":[],"links":[[0,0]]}`,
		`{"name":"<a&b>\u2028\u2029\"\\\/\u0001\t","ports":[2,2],"servers":[1,1],"links":[[0,1]]}`,
		"{\"name\":\"\xff\xfe\u2028 \\ud800\",\"ports\":[],\"servers\":[],\"links\":[]}",
		`{"name":"x","ports":null,"servers":null,"links":null}`,
		// 18 and 19 digits, leading zeros, fractions and exponents.
		`{"ports":[123456789012345678],"servers":[-123456789012345678],"links":[]}`,
		`{"ports":[1234567890123456789],"servers":[-1234567890123456789],"links":[]}`,
		`{"ports":[0,00],"servers":[0,0],"links":[]}`,
		`{"ports":[2,2],"servers":[-0,01],"links":[[0,1]]}`,
		`{"ports":[2.0,2],"servers":[1e0,1],"links":[[0,1]]}`,
		// Raw U+2028, invalid UTF-8 and a BOM.
		"{\"name\":\"a\u2028b\",\"ports\":[2,2],\"servers\":[1,1],\"links\":[[0,1]]}",
		"{\"name\":\"a\xffb\",\"ports\":[2,2],\"servers\":[1,1],\"links\":[[0,1]]}",
		"\xef\xbb\xbf{\"ports\":[2,2],\"servers\":[1,1],\"links\":[[0,1]]}",
		// Duplicate, case-folded and unknown keys; short and long links.
		`{"ports":[9,9,9],"ports":[2,2],"servers":[1,1],"links":[[0,1]],"links":[]}`,
		`{"Ports":[2,2],"servers":[1,1],"LINKS":[[0,1]],"name":"a","Name":"b"}`,
		`{"ports":[2,2],"servers":[1,1],"links":[[0,1]],"extra":[1,{"a":null}]}`,
		`{"ports":[2,2,2],"servers":[1,1,1],"links":[[1],[0,2,1]]}`,
		// Whitespace everywhere, null documents and trailing bytes.
		" \t\r\n{ \"ports\" : [ 2 , 2 ] , \"servers\" :[1,1],\"links\":[ [ 0 , 1 ] ] } ",
		`null`,
		`{}`,
		`{"ports":[2,2],"servers":[1,1],"links":[[0,1]]}]`,
		`{"ports":[2,2],"servers":[1,1],"links":[[0,1]]}{"ports":[1]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParseMatchesReference(t, data)
		checkPrefix(t, data)
		top, err := ParseBlueprint(data)
		if err != nil {
			return
		}
		if verr := top.Validate(); verr != nil {
			t.Fatalf("decoder accepted an invalid topology: %v", verr)
		}
		checkBlueprintEncoding(t, top)
		var buf bytes.Buffer
		if werr := top.WriteBlueprint(&buf); werr != nil {
			t.Fatalf("accepted topology failed to re-encode: %v", werr)
		}
		again, rerr := ParseBlueprint(buf.Bytes())
		if rerr != nil {
			t.Fatalf("re-encoded blueprint failed to decode: %v", rerr)
		}
		if again.NumSwitches() != top.NumSwitches() || again.NumLinks() != top.NumLinks() ||
			again.NumServers() != top.NumServers() {
			t.Fatalf("round-trip changed dims: %s vs %s", again, top)
		}
		if PlanRewiring(top, again).Moves() != 0 {
			t.Fatal("round-trip changed the link set")
		}
	})
}
