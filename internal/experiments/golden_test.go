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
