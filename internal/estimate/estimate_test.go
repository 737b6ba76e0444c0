package estimate_test

import (
	"context"
	"math"
	"testing"
	"time"

	"jellyfish/internal/estimate"
	"jellyfish/internal/graph"
	"jellyfish/internal/mcf"
	"jellyfish/internal/rng"
	"jellyfish/internal/topology"
	"jellyfish/internal/traffic"
)

// paperInstance builds a paper-scale jellyfish (n k-port switches, r
// network links each) with its random-permutation commodities.
func paperInstance(n, k, r int, seed uint64) (*topology.Topology, []mcf.Commodity) {
	top := topology.Jellyfish(n, k, r, rng.New(seed))
	pat := traffic.RandomPermutation(top.ServerSwitches(), rng.New(seed).Split("traffic"))
	return top, pat.Commodities()
}

func allKinds(t *testing.T, sample int, seed uint64) []estimate.ThroughputEstimator {
	t.Helper()
	ests := make([]estimate.ThroughputEstimator, 0, 3)
	for _, kind := range estimate.Kinds() {
		est, err := estimate.New(kind, sample, seed)
		if err != nil {
			t.Fatalf("New(%q): %v", kind, err)
		}
		ests = append(ests, est)
	}
	return ests
}

// The bound contract at paper scale: the exact answer always lands inside
// every estimator's bracket. The exact solver itself returns a certified
// interval [Lambda, UpperBound] ∋ λ*, so the robust consistency assertion
// is interval overlap: est.Lower ≤ exact.UpperBound and exact.Lambda ≤
// est.Upper — anything else proves one of the two certificates wrong.
func TestBracketsExactAtPaperScale(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		top, comms := paperInstance(50, 8, 5, seed)
		exact := mcf.MaxConcurrentFlow(context.Background(), top.Graph, comms, mcf.Options{Workers: 1})
		compact := top.Compact()
		for _, est := range allKinds(t, 16, seed) {
			b := est.Estimate(context.Background(), compact, comms)
			if !(b.Lower <= b.Upper+1e-9) {
				t.Errorf("seed %d %s: inverted bounds [%v, %v]", seed, est.Name(), b.Lower, b.Upper)
			}
			if b.Lower > exact.UpperBound+1e-9 {
				t.Errorf("seed %d %s: lower bound %v exceeds exact dual %v (%s)",
					seed, est.Name(), b.Lower, exact.UpperBound, b.LowerCert)
			}
			if exact.Lambda > b.Upper+1e-9 {
				t.Errorf("seed %d %s: exact primal %v exceeds upper bound %v (%s)",
					seed, est.Name(), exact.Lambda, b.Upper, b.UpperCert)
			}
			if b.Lower <= 0 {
				t.Errorf("seed %d %s: vacuous lower bound %v on a connected instance", seed, est.Name(), b.Lower)
			}
			if math.IsInf(b.Upper, 1) {
				t.Errorf("seed %d %s: vacuous upper bound on a demanding instance", seed, est.Name())
			}
		}
	}
}

// Estimate is a pure function: repeated calls on one estimator (scratch
// reuse) and calls on a fresh estimator with the same construction
// parameters return identical Bounds.
func TestEstimateDeterministic(t *testing.T) {
	top, comms := paperInstance(40, 8, 5, 3)
	compact := top.Compact()
	for _, kind := range estimate.Kinds() {
		a, _ := estimate.New(kind, 16, 99)
		b, _ := estimate.New(kind, 16, 99)
		r1 := a.Estimate(context.Background(), compact, comms)
		r2 := a.Estimate(context.Background(), compact, comms) // scratch reuse
		r3 := b.Estimate(context.Background(), compact, comms) // fresh instance
		if r1 != r2 {
			t.Errorf("%s: repeated call diverged: %+v vs %+v", kind, r1, r2)
		}
		if r1 != r3 {
			t.Errorf("%s: fresh instance diverged: %+v vs %+v", kind, r1, r3)
		}
	}
}

func TestNoEffectiveCommodities(t *testing.T) {
	top, _ := paperInstance(10, 6, 4, 1)
	compact := top.Compact()
	degenerate := []mcf.Commodity{{Src: 1, Dst: 1, Demand: 5}, {Src: 2, Dst: 3, Demand: 0}}
	for _, est := range allKinds(t, 0, 1) {
		for _, comms := range [][]mcf.Commodity{nil, degenerate} {
			b := est.Estimate(context.Background(), compact, comms)
			if !math.IsInf(b.Lower, 1) || !math.IsInf(b.Upper, 1) {
				t.Errorf("%s: bounds %+v for no effective commodities, want +Inf", est.Name(), b)
			}
		}
	}
}

// trianglePair builds two disjoint triangles: {0,1,2} and {3,4,5}.
func trianglePair() *graph.Graph {
	g := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		g.AddEdge(e[0], e[1])
	}
	return g
}

func TestDisconnectedCommodityBounds(t *testing.T) {
	// Two separate triangles; a commodity across them has λ* = 0.
	top := &topology.Topology{Name: "split", Graph: trianglePair(), Ports: make([]int, 6), Servers: make([]int, 6)}
	compact := top.Compact()
	comms := []mcf.Commodity{{Src: 0, Dst: 5, Demand: 1}}
	for _, est := range allKinds(t, 0, 1) {
		b := est.Estimate(context.Background(), compact, comms)
		if b.Lower != 0 || b.Upper != 0 {
			t.Errorf("%s: bounds %+v for disconnected commodity, want [0, 0]", est.Name(), b)
		}
	}
}

// Small subsample sizes must still produce sound (if loose) bounds.
func TestSampledSmallSample(t *testing.T) {
	top, comms := paperInstance(50, 8, 5, 11)
	exact := mcf.MaxConcurrentFlow(context.Background(), top.Graph, comms, mcf.Options{Workers: 1})
	for _, sample := range []int{1, 4, 1 << 20} {
		est, err := estimate.New("sampled-mcf", sample, 11)
		if err != nil {
			t.Fatal(err)
		}
		b := est.Estimate(context.Background(), top.Compact(), comms)
		if b.Lower > exact.UpperBound+1e-9 || exact.Lambda > b.Upper+1e-9 {
			t.Errorf("sample %d: exact [%v, %v] outside bracket [%v, %v]",
				sample, exact.Lambda, exact.UpperBound, b.Lower, b.Upper)
		}
	}
}

func benchEstimate(b *testing.B, kind string) {
	b.Helper()
	top := topology.Jellyfish(200, 12, 9, rng.New(2))
	pat := traffic.RandomPermutation(top.ServerSwitches(), rng.New(2).Split("traffic"))
	comms := pat.Commodities()
	compact := top.Compact()
	est, err := estimate.New(kind, estimate.DefaultSample, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bounds := est.Estimate(context.Background(), compact, comms)
		if bounds.Lower <= 0 {
			b.Fatalf("vacuous bounds %+v", bounds)
		}
	}
}

func BenchmarkEstimateBisection(b *testing.B)  { benchEstimate(b, "bisection") }
func BenchmarkEstimateSpectral(b *testing.B)   { benchEstimate(b, "spectral") }
func BenchmarkEstimateSampledMCF(b *testing.B) { benchEstimate(b, "sampled-mcf") }

// TestScaleSmoke pins the megascale acceptance bar: a 10k-switch
// jellyfish's compact build plus all three estimators complete within a
// wall-clock budget and produce non-vacuous certified bounds. Gated out
// of -short; CI runs it in the scale-smoke job.
func TestScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke skipped in -short")
	}
	const n, k, r = 10000, 12, 9
	start := time.Now()
	top := topology.Jellyfish(n, k, r, rng.New(5))
	pat := traffic.RandomPermutation(top.ServerSwitches(), rng.New(5).Split("traffic"))
	comms := pat.Commodities()
	buildStart := time.Now()
	compact := top.Compact()
	if d := time.Since(buildStart); d > 10*time.Second {
		t.Errorf("Compact build took %v, budget 10s", d)
	}
	if compact.NumSwitches() != n || compact.NumServers() != n*(k-r) {
		t.Fatalf("compact dims: %d switches %d servers", compact.NumSwitches(), compact.NumServers())
	}
	t.Logf("construction+traffic %v (%d commodities, %d links)", time.Since(start), len(comms), compact.CSR.M())

	for _, est := range allKinds(t, 0, 5) {
		estStart := time.Now()
		b := est.Estimate(context.Background(), compact, comms)
		d := time.Since(estStart)
		t.Logf("%s: [%v, %v] in %v (upper: %s)", est.Name(), b.Lower, b.Upper, d, b.UpperCert)
		if d > 60*time.Second {
			t.Errorf("%s took %v, budget 60s", est.Name(), d)
		}
		if b.Lower <= 0 || b.Lower > b.Upper+1e-9 || math.IsInf(b.Upper, 1) {
			t.Errorf("%s: vacuous or inverted bounds [%v, %v] at scale", est.Name(), b.Lower, b.Upper)
		}
	}
}
