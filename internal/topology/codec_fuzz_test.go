package topology

import (
	"bytes"
	"testing"

	"jellyfish/internal/rng"
)

// FuzzReadBlueprint drives the decoder with arbitrary bytes: it must never
// panic, and anything it accepts must be a valid topology that re-encodes
// to a decodable, structurally identical blueprint, through an encoder
// that writes encoding/json's bytes.
func FuzzReadBlueprint(f *testing.F) {
	// Seed corpus: real blueprints of each constructor family plus the
	// rejection cases the unit tests pin.
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
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		top, err := ReadBlueprint(bytes.NewReader(data))
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
		again, rerr := ReadBlueprint(&buf)
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
