package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
)

// The figures benchmark workload's experiments, pinned byte for byte: the
// SHA-256 of each full-scale seed-1 table as Fprint renders it. Every
// worker count must print the same bytes, so a scheduling change that
// moves one cell, or one float summed in a different order, shows up
// here. A change to the printed figures is a re-baseline and updates
// these digests on purpose.
func TestFiguresWorkloadGolden(t *testing.T) {
	fullScale(t)
	golden := []struct{ id, sha string }{
		{"table1", "107a2e0ecd84cc2677f1e192c9d2f80876803101dc41080b7d3f86e96d7657ed"},
		{"fig11", "69fadb7fd8f023b4ada9c8c8ea436073452530837c6b57989968effaa42c23dd"},
		{"ablation-packet-vs-fluid", "d1d7afe22512d705e5b5424fbf440112823dc817512daebe954233736c1d5d22"},
	}
	for _, g := range golden {
		for _, workers := range []int{1, 2} {
			var buf bytes.Buffer
			Lookup(g.id)(Options{Seed: 1, Workers: workers}).Fprint(&buf)
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != g.sha {
				t.Errorf("%s at Workers=%d: sha256 %s, want %s\n%s", g.id, workers, got, g.sha, buf.String())
			}
		}
	}
}

// The quick-scale experiments, pinned byte for byte at seed 1 and one or
// two workers: every table that routes a permutation and runs a transport
// model over it, and every table whose bytes pass through the mcf
// throughput clamp, the summary statistics, Jain's index or the expansion
// arcs (fig2c, fig5, fig6, fig7 and the oversubscription, switch-failure,
// all-to-all and hotspot ablations). Rows marked long take over a second
// on a 2-vCPU host and run only without -short; the rest are cheap enough
// for -short, so a change to the shared trial path (permutation, route
// table, simulator streams) fails fast.
func TestTransportQuickGolden(t *testing.T) {
	golden := []struct {
		id, sha string
		long    bool
	}{
		{"table1", "9e18cf062a14e9efec6b738643a7607660538fe031a48d02cfbaded460c41ccc", false},
		{"fig8", "f4f2da60bdb672e728e0ef9488909a6257262eac0d9519e7d69256272e4e9a1e", false},
		{"fig9", "d79ada4eed0e7a0085a8a520e546a006f7def5ec0c5d86f3407f7eb40db0ed2d", false},
		{"fig10", "9d32b0effff88d4c88e229e5854e64efdd343e4e54d0203352c053a4d69167e7", false},
		{"fig11", "e28d1d0ced0746c02c5d2167c1d29456636a44e0f900fa748ee6b08cc93ff979", false},
		{"fig12", "96b77801e92ad0b2385f76cf879e9872127985d283420e348219db024fd4f266", false},
		{"fig13", "40f03607843de34564acdc68a4357149dd4d2322806331021a2bffa7d4fd7242", false},
		{"ablation-routing-k", "fd6bfca5f51240c99c84348942ab3274a542fda14008d0d76d2b2c660feeb35c", false},
		{"ablation-failures-routing", "7735e0054a51c449e90907020d61985fe22656c74cf143f90fb9efe7ecf12332", false},
		{"ablation-packet-vs-fluid", "f2ce6eb971a3c72234adbbac28f473765e26c9623edb0f6545c0c7e81eea3b1e", false},
		{"fig2c", "9c668a3f3fb52e1e3723fd50b60e39160f433990d11c45a8e44239df1542b697", false},
		{"fig5", "4506dfcfc85e1aae0f3f60fb621fb0f3b6d9b64f691a8014f8116dcbfdbddb3c", false},
		{"fig6", "2a8f54ac46b1976ed36491ad8d5f45938db24c7e401c3a046cc2b7688a5749c3", true},
		{"fig7", "faa63601750746a689beb7630b4c151f0f44d6b9668e14d994515746b96b5122", false},
		{"ablation-oversubscription", "679fa83d09bbd5bf1ed78d23d17fe538ffc233a031f7c4262705c0a01325e149", true},
		{"ablation-switch-failures", "e730027dca35055d20037bdeb5f0b8cdb0e45a975d6955e874b56c26846e08bd", false},
		{"ablation-alltoall", "a0724e942d551f7933f4dfd5fe2aeb1b22ab4380d026022846f5f1dc5c7b6101", false},
		{"ablation-hotspot", "cd46582ea786aa156a96007a7e3e1bc06807c4df6e9876765b1d62d9e965dd84", false},
	}
	for _, g := range golden {
		if g.long && testing.Short() {
			continue
		}
		for _, workers := range []int{1, 2} {
			var buf bytes.Buffer
			Lookup(g.id)(Options{Seed: 1, Quick: true, Workers: workers}).Fprint(&buf)
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != g.sha {
				t.Errorf("%s at Workers=%d: sha256 %s, want %s\n%s", g.id, workers, got, g.sha, buf.String())
			}
		}
	}
}
