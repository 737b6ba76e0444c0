package jellyfish

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"
)

// The transport API pinned byte for byte: the SHA-256 of
// PacketLevelThroughput's mean, fairness and per-flow rates for every
// routing scheme and protocol, and of LinkPathCounts for every scheme, at
// one and two route-building workers. Floats are hashed by their bits.
func TestTransportAPIGolden(t *testing.T) {
	const want = "93d8359a151244144789ae3f5e6b128067df33017deccb38aa1b581b15c7bf52"
	net := New(Config{Switches: 30, Ports: 8, NetworkDegree: 5, Seed: 15})
	for _, workers := range []int{1, 2} {
		h := sha256.New()
		for _, scheme := range []RoutingScheme{ECMP8, ECMP64, KSP8} {
			for _, proto := range []TransportProtocol{TCP1Flow, TCP8Flows, MPTCP8Subflows} {
				res := PacketLevelThroughput(net, scheme, proto, 16, workers)
				fmt.Fprintf(h, "%d/%d %x %x", scheme, proto, math.Float64bits(res.MeanThroughput), math.Float64bits(res.Fairness))
				for _, r := range res.FlowThroughputs {
					fmt.Fprintf(h, " %x", math.Float64bits(r))
				}
				fmt.Fprintln(h)
			}
			fmt.Fprintln(h, int(scheme), LinkPathCounts(net, scheme, 20, workers))
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
			t.Errorf("workers=%d: sha256 %s, want %s", workers, got, want)
		}
	}
}

// The throughput API pinned byte for byte: the SHA-256 of the bits of
// OptimalThroughput, a WhatIfEvaluator's OptimalThroughput, all three
// EstimateThroughput brackets and MeasuredBisection, on two seeds over a
// loaded network and over a lightly loaded one whose raw λ exceeds 1, so
// both sides of the cap at 1 are covered.
func TestThroughputAPIGolden(t *testing.T) {
	const want = "f5d1b327c9a11d0f466c2bf1092c394a12bf51e6d8b23f870e8a43f99460fbd1"
	h := sha256.New()
	for _, cfg := range []Config{
		{Switches: 30, Ports: 8, NetworkDegree: 5, Seed: 15},
		{Switches: 20, Ports: 8, NetworkDegree: 7, Seed: 3},
	} {
		net := New(cfg)
		ev := NewWhatIfEvaluator(1)
		for _, seed := range []uint64{16, 17} {
			fmt.Fprintf(h, "%d %x %x", seed, math.Float64bits(OptimalThroughput(net, seed)), math.Float64bits(ev.OptimalThroughput(net, seed)))
			for _, est := range []string{"bisection", "spectral", "sampled-mcf"} {
				lo, hi, err := EstimateThroughput(net, est, 0, seed)
				if err != nil {
					t.Fatalf("%s: %v", est, err)
				}
				fmt.Fprintf(h, " %s %x %x", est, math.Float64bits(lo), math.Float64bits(hi))
			}
			fmt.Fprintf(h, " %x\n", math.Float64bits(MeasuredBisection(net, seed)))
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("sha256 %s, want %s", got, want)
	}
}
