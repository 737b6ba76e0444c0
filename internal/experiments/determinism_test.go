package experiments

import (
	"bytes"
	"testing"

	"jellyfish/internal/flowsim"
	"jellyfish/internal/rng"
	"jellyfish/internal/topology"
)

// renderWith runs the experiment with the given worker count and returns
// the fully rendered table, so the comparison covers every formatted cell
// and note.
func renderWith(t *testing.T, id string, workers int) string {
	t.Helper()
	run := Lookup(id)
	if run == nil {
		t.Fatalf("unknown experiment %q", id)
	}
	var buf bytes.Buffer
	run(Options{Seed: 42, Quick: true, Workers: workers}).Fprint(&buf)
	return buf.String()
}

// The tentpole guarantee: identical Seed yields byte-identical tables
// regardless of worker count. The chosen experiments cover all three
// concurrent layers — fig10 drives the batched MCF solver plus kSP
// routing and the flow simulator, fig9 drives the ECMP/kSP route-table
// fan-out, and table1 drives the per-trial experiment fan-out over
// shared compiled transport instances (per-worker Sim scratch + one
// routing.Compiled) — plus ablation-hotspot, whose per-trial warm-start
// chains must also be scheduling-independent, and
// ablation-packet-vs-fluid, whose mcf and DES stages for one size run as
// separate tasks. fig11 — the family-probing transport search with
// per-worker Sims carried across probes — rides along outside -short (it
// is the heaviest of the set).
func TestWorkerCountDeterminism(t *testing.T) {
	ids := []string{"fig10", "fig9", "table1", "ablation-hotspot", "ablation-packet-vs-fluid"}
	if !testing.Short() {
		ids = append(ids, "fig11")
	}
	for _, id := range ids {
		serial := renderWith(t, id, 1)
		for _, w := range []int{4, 8} {
			if got := renderWith(t, id, w); got != serial {
				t.Errorf("%s: Workers=%d output differs from Workers=1\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
					id, w, serial, w, got)
			}
		}
	}
}

// Compiled-instance reuse must be invisible in results: one trial
// computed through a shared transportKit (memoized routing + per-worker
// Sim scratch) must equal the one-shot simMean bit for bit, for every
// scheme and protocol, including after the kit has served other work.
func TestTransportKitMatchesOneShot(t *testing.T) {
	src := rng.New(77).Split("kit-test")
	top := topology.JellyfishSpread(40, 10, 90, src.Split("topo"))
	kit := newTransportKit(top, 2)
	for round := 0; round < 2; round++ {
		for _, scheme := range []string{"ecmp8", "ecmp64", "ksp8"} {
			for _, proto := range []flowsim.Protocol{flowsim.TCP1, flowsim.TCP8, flowsim.MPTCP8} {
				for trial := 0; trial < 2; trial++ {
					tsrc := src.SplitN(scheme+proto.String(), trial)
					want := simMean(top, scheme, proto, tsrc, 1)
					got := kit.simMean(round%2, scheme, proto, tsrc)
					if got != want {
						t.Fatalf("round %d %s/%v trial %d: kit %v != one-shot %v", round, scheme, proto, trial, got, want)
					}
				}
			}
		}
	}
}

// Options.Workers=0 must behave like "all cores", not "no workers".
func TestWorkersZeroMeansAllCores(t *testing.T) {
	if got := renderWith(t, "fig9", 0); got != renderWith(t, "fig9", 1) {
		t.Fatal("Workers=0 output differs from serial output")
	}
}
