// Package bisection computes the bisection-bandwidth quantities used by the
// paper's capacity analysis (§4.1, Figs. 2a/2b, and the LEGUP comparison of
// Fig. 7): the Bollobás lower bound on the bisection of random regular
// graphs, the fat-tree's closed form, and a Kernighan–Lin heuristic
// minimum bisection for explicit graphs.
package bisection

import (
	"math"
	"sort"

	"jellyfish/internal/graph"
	"jellyfish/internal/rng"
)

// RRGCrossingLowerBound returns the Bollobás [8] lower bound on the number
// of edges crossing any equal split of an r-regular random graph on n
// vertices: n·(r/4 − √(r·ln2)/2). The bound holds for almost every
// r-regular graph. Negative values are clamped to zero (small r).
func RRGCrossingLowerBound(n, r int) float64 {
	b := float64(n) * (float64(r)/4 - math.Sqrt(float64(r)*math.Ln2)/2)
	if b < 0 {
		return 0
	}
	return b
}

// RRGNormalizedBisection returns the Bollobás bound normalized by the
// server line-rate bandwidth of one partition: with n switches of k ports
// and r network ports each, one side holds n(k−r)/2 servers.
// Values above 1 indicate overprovisioning.
func RRGNormalizedBisection(n, k, r int) float64 {
	servers := float64(n*(k-r)) / 2
	if servers <= 0 {
		return math.Inf(1)
	}
	return RRGCrossingLowerBound(n, r) / servers
}

// MaxServersAtFullBisection returns the largest number of servers a
// Jellyfish built from n switches of k ports can support at normalized
// bisection bandwidth ≥ 1, by scanning the server-per-switch split. The
// second return is the chosen network degree r.
func MaxServersAtFullBisection(n, k int) (servers, r int) {
	best, bestR := 0, 0
	for rr := 1; rr < k; rr++ {
		if rr >= n {
			break
		}
		if RRGNormalizedBisection(n, k, rr) >= 1 {
			if s := n * (k - rr); s > best {
				best, bestR = s, rr
			}
		}
	}
	return best, bestR
}

// MinPortsForServers returns the minimum total port count (equipment cost)
// of a Jellyfish network of k-port switches supporting at least the given
// number of servers at full (normalized ≥ 1) bisection bandwidth, along
// with the switch count and network degree chosen. Returns (0,0,0) if no
// k-port design can reach full bisection for that load.
func MinPortsForServers(servers, k int) (ports, n, r int) {
	// For each degree split, compute the switch count needed and keep the
	// cheapest feasible design.
	bestPorts := math.MaxInt
	var bestN, bestR int
	for rr := 1; rr < k; rr++ {
		perSwitch := k - rr
		if perSwitch == 0 {
			continue
		}
		n := (servers + perSwitch - 1) / perSwitch
		if n <= rr {
			continue
		}
		if RRGNormalizedBisection(n, k, rr) < 1 {
			continue
		}
		if cost := n * k; cost < bestPorts {
			bestPorts, bestN, bestR = cost, n, rr
		}
	}
	if bestPorts == math.MaxInt {
		return 0, 0, 0
	}
	return bestPorts, bestN, bestR
}

// KLBisection partitions the graph's vertices into two halves balanced by
// the given vertex weights (e.g. attached servers) while heuristically
// minimizing crossing edges, using randomized-restart Kernighan–Lin-style
// pairwise swap refinement. It returns the crossing edge count and the
// side assignment. Weights may be nil (unit weights).
func KLBisection(g *graph.Graph, weights []int, restarts int, src *rng.Source) (cut int, side []bool) {
	n := g.N()
	if weights == nil {
		weights = make([]int, n)
		for i := range weights {
			weights[i] = 1
		}
	}
	if restarts <= 0 {
		restarts = 4
	}
	bestCut := math.MaxInt
	var bestSide []bool
	for rs := 0; rs < restarts; rs++ {
		s := RandomBalancedSide(n, weights, src.SplitN("restart", rs))
		c := refine(g, s, weights)
		if c < bestCut {
			bestCut = c
			bestSide = s
		}
	}
	return bestCut, bestSide
}

// RandomBalancedSide assigns vertices to sides by descending weight (random
// tie order), always placing into the lighter side — the LPT rule, which
// balances within the largest single weight.
func RandomBalancedSide(n int, weights []int, src *rng.Source) []bool {
	side := make([]bool, n)
	order := src.Perm(n)
	sort.SliceStable(order, func(i, j int) bool {
		return weights[order[i]] > weights[order[j]]
	})
	wA, wB := 0, 0
	for _, v := range order {
		if wA <= wB {
			wA += weights[v]
		} else {
			side[v] = true
			wB += weights[v]
		}
	}
	return side
}

// refine runs KL-style passes: repeatedly swap the cross pair with the best
// cut gain, subject to never worsening the weight imbalance, until no
// improving swap exists.
func refine(g *graph.Graph, side []bool, weights []int) int {
	n := g.N()
	wA, wB := 0, 0
	for v := 0; v < n; v++ {
		if side[v] {
			wB += weights[v]
		} else {
			wA += weights[v]
		}
	}
	abs := func(x int) int {
		if x < 0 {
			return -x
		}
		return x
	}
	// gain(v): cut reduction from moving v across (external - internal).
	gain := func(v int) int {
		ext, inn := 0, 0
		for _, u := range g.Neighbors(v) {
			if side[u] != side[v] {
				ext++
			} else {
				inn++
			}
		}
		return ext - inn
	}
	for pass := 0; pass < 20; pass++ {
		bestDelta, bestA, bestB := 0, -1, -1
		for a := 0; a < n; a++ {
			if side[a] {
				continue
			}
			ga := gain(a)
			for b := 0; b < n; b++ {
				if !side[b] {
					continue
				}
				// Swapping a (side A) with b (side B) shifts balance by
				// 2*(w[b]-w[a]); forbid swaps that worsen imbalance.
				newImb := abs((wA - weights[a] + weights[b]) - (wB - weights[b] + weights[a]))
				if newImb > abs(wA-wB) {
					continue
				}
				delta := ga + gain(b)
				if g.HasEdge(a, b) {
					delta -= 2
				}
				if delta > bestDelta {
					bestDelta, bestA, bestB = delta, a, b
				}
			}
		}
		if bestA < 0 {
			break
		}
		wA += weights[bestB] - weights[bestA]
		wB += weights[bestA] - weights[bestB]
		side[bestA], side[bestB] = true, false
		_ = bestDelta
	}
	return cutSize(g, side)
}

func cutSize(g *graph.Graph, side []bool) int {
	cut := 0
	for _, e := range g.Edges() {
		if side[e.U] != side[e.V] {
			cut++
		}
	}
	return cut
}
