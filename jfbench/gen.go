package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"jellyfish"
	"jellyfish/internal/service"
)

// A request is one distinct request of a workload. Sync requests POST
// body to path; durable jobs (path == "") POST {"type":job,"request":body}
// to /v1/jobs and follow the job to its result document. The body is
// kept in parts so large inline blueprints are shared, not copied, across
// the requests that carry them.
type request struct {
	class string
	path  string
	job   string
	body  [][]byte
}

func (r *request) bytes() []byte { return bytes.Join(r.body, nil) }

// syncPath is the endpoint answering the request synchronously: a job's
// result document must equal that endpoint's response bytes.
func (r *request) syncPath() string {
	if r.path != "" {
		return r.path
	}
	return "/v1/" + r.job
}

// A workload is the complete, pre-generated input of one run: the
// distinct requests, the set-up prefix, the measured op sequence
// (indices into reqs) and, for an open loop, each op's scheduled offset.
type workload struct {
	name    string
	reqs    []request
	prefill []int // hot: jobs that fill the state dir before set-up
	warmup  []int
	ops     []int
	at      []time.Duration // nil for a closed loop
	figures []string        // experiment IDs (figures only)
}

func (w *workload) add(class, path string, v any) int {
	w.reqs = append(w.reqs, request{class: class, path: path, body: [][]byte{mustJSON(v)}})
	return len(w.reqs) - 1
}

func (w *workload) addJob(class, job string, v any) int {
	w.reqs = append(w.reqs, request{class: class, job: job, body: [][]byte{mustJSON(v)}})
	return len(w.reqs) - 1
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// newRand returns the workload's random stream; stream separates the
// independent draws of one workload (families, arrivals, ...).
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x6a656c6c79666973^stream))
}

// genWorkload builds the named workload for a seed and a measured
// duration.
func genWorkload(name string, seed uint64, seconds float64) (*workload, error) {
	switch name {
	case "interactive":
		return genInteractive(seed, seconds), nil
	case "sweep":
		return genSweep(seed), nil
	case "hot":
		return genHot(seed, seconds), nil
	case "figures":
		return &workload{name: name, figures: []string{"table1", "fig11", "ablation-packet-vs-fluid"}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want interactive, sweep, hot or figures)", name)
}

// Interactive-workload shape. Light ops (designs, transport and
// estimator evaluates, rewire plans, small capacity searches) follow a
// fixed class pattern; every fourth is a new request on a Zipf-drawn
// family of a 32-family pool (a response-tier miss, while the family's
// sim, family and chain tiers hit or miss by its popularity), the rest
// re-ask the Zipf-popular requests of the four most popular families,
// which the set-up warms. New requests accumulate well past the
// daemon's 2x128-entry warm cache. Heavy ops (optimal-routing evaluates
// and what-if chain steps, ~0.1 s solves) sit at fixed slots of every
// block. Fixed patterns give every run the same amount of each kind of
// work; the seed varies what is asked.
const (
	interactiveFamilies = 32
	interactivePopular  = 4    // families whose requests the set-up warms
	interactiveRate     = 86.0 // arrivals per second: a third of what the daemon sustains on this mix, where the median stays clear of queueing
	interactiveBlock    = 64   // ops per block
)

// interactiveSizes are the switch counts of the families.
var interactiveSizes = []int{50, 55, 60, 65, 70, 75, 80}

// lightPattern is the class sequence of light ops.
var lightPattern = []string{
	"evaluate.transport", "design", "evaluate.estimator", "evaluate.transport",
	"rewire-plan", "evaluate.estimator", "evaluate.transport", "capacity-search",
}

func genInteractive(seed uint64, seconds float64) *workload {
	w := &workload{name: "interactive"}
	r := newRand(seed, 1)
	designs := make([]service.DesignSpec, interactiveFamilies)
	for f := range designs {
		designs[f] = service.DesignSpec{Switches: interactiveSizes[f%len(interactiveSizes)], Ports: 12, NetworkDegree: 8, Seed: r.Uint64N(1 << 20)}
	}
	transports := []service.TransportSpec{{Protocol: "tcp8", Routing: "ksp8"}, {Protocol: "mptcp8", Routing: "ksp8"}, {Protocol: "tcp8", Routing: "ecmp8"}, {Protocol: "mptcp8", Routing: "ecmp8"}}
	estimators := []string{"bisection", "spectral", "sampled-mcf"}
	// newLight adds a new request of a class on family f; k varies the
	// variant (transport, estimator kind) across calls.
	k := 0
	newLight := func(class string, f int) int {
		k++
		d := designs[f]
		top := service.TopologySpec{Design: &d}
		switch class {
		case "design":
			d.Seed = r.Uint64N(1 << 40) // a new design of the family's size
			return w.add(class, "/v1/design", d)
		case "evaluate.transport":
			return w.add(class, "/v1/evaluate", service.EvaluateRequest{Topology: top, Seed: r.Uint64N(1 << 40), Transport: &transports[k%len(transports)]})
		case "evaluate.estimator":
			return w.add(class, "/v1/evaluate", service.EvaluateRequest{Topology: top, Seed: r.Uint64N(1 << 40), Estimator: &service.EstimatorSpec{Kind: estimators[k%len(estimators)]}})
		case "rewire-plan":
			after := d
			after.Seed = r.Uint64N(1 << 40)
			return w.add(class, "/v1/rewire-plan", service.RewireRequest{Before: top, After: service.TopologySpec{Design: &after}})
		default:
			// The family's inventory with a new slack: a response miss
			// that grows on the family tier's cached topology family.
			return w.add(class, "/v1/capacity-search", service.CapacitySearchRequest{Switches: 16 + f%9, Ports: 6, Trials: 1, Slack: 0.02 + 0.0001*float64(k%100), Seed: d.Seed})
		}
	}
	// The popular families' requests, two per class.
	popular := make([]map[string][]int, interactivePopular)
	for f := range popular {
		popular[f] = map[string][]int{}
		for _, class := range lightPattern[:5] {
			for range 2 {
				q := newLight(class, f)
				popular[f][class] = append(popular[f][class], q)
				w.warmup = append(w.warmup, q)
			}
		}
		q := newLight("capacity-search", f)
		popular[f]["capacity-search"] = []int{q}
		w.warmup = append(w.warmup, q)
	}
	famZipf := rand.NewZipf(newRand(seed, 2), 1.2, 1, interactiveFamilies-1)
	popZipf := rand.NewZipf(newRand(seed, 3), 1.6, 1, interactivePopular-1)
	lr := newRand(seed, 6)
	nLight := 0
	light := func() int {
		pos, cycle := nLight%len(lightPattern), nLight/len(lightPattern)
		nLight++
		class := lightPattern[pos]
		if (pos+cycle)%4 == 0 { // every class is new once in four
			return newLight(class, int(famZipf.Uint64()))
		}
		qs := popular[popZipf.Uint64()][class]
		return qs[lr.IntN(len(qs))]
	}

	// Heavy slots: every block opens with a fresh optimal evaluate (a
	// miss) and carries one what-if op at its middle, cycling over four
	// blocks through a new one-step chain, its extensions to two and
	// three steps and a repeat of the last optimal evaluate (a
	// response-tier hit). Chains grow from two base designs whose base
	// solve the set-up caches, so every chain op costs one step solve on
	// top of a chain-tier hit. Heavy topologies have one size, so the
	// latency tail is read off many like solves rather than off the
	// largest few.
	const heavySize = 50
	hr := newRand(seed, 4)
	type chainBase struct {
		top  service.TopologySpec
		seed uint64
	}
	var bases [2]chainBase
	for i := range bases {
		d := designs[i*len(interactiveSizes)] // families of heavySize switches
		bases[i] = chainBase{service.TopologySpec{Design: &d}, hr.Uint64N(1 << 20)}
		w.warmup = append(w.warmup, w.add("whatif", "/v1/whatif", service.WhatIfRequest{Base: bases[i].top, Seed: bases[i].seed,
			Scenarios: []service.Scenario{{Miswire: &service.MiswireOp{Count: 1, Seed: hr.Uint64N(1 << 20)}}}}))
	}
	var optimal int
	var scen []service.Scenario
	heavy := func(i int) int {
		switch b := i / interactiveBlock; {
		case i%interactiveBlock == 0:
			d := designs[famZipf.Uint64()]
			d.Switches, d.Seed = heavySize, hr.Uint64N(1<<40)
			optimal = w.add("evaluate.optimal", "/v1/evaluate", service.EvaluateRequest{Topology: service.TopologySpec{Design: &d}, Seed: hr.Uint64N(1 << 20)})
			return optimal
		case i%interactiveBlock != interactiveBlock/2:
			return -1
		case b%4 == 3:
			return optimal
		default:
			if b%4 == 0 {
				scen = []service.Scenario{
					{FailLinks: &service.FailLinksOp{Fraction: 0.05 + 0.1*hr.Float64(), Seed: hr.Uint64N(1 << 20)}},
					{FailSwitches: &service.FailSwitchesOp{Fraction: 0.05, Seed: hr.Uint64N(1 << 20)}},
					{Expand: &service.ExpandOp{Switches: 5, Ports: 12, NetworkDegree: 8, Seed: hr.Uint64N(1 << 20)}},
				}
			}
			base := bases[b/4%len(bases)]
			return w.add("whatif", "/v1/whatif", service.WhatIfRequest{Base: base.top, Seed: base.seed, Scenarios: scen[:b%4+1]})
		}
	}

	// Poisson arrivals conditioned on n arrivals in the measured
	// duration: exponential gaps, rescaled so the last is due at its end.
	n := int(math.Round(interactiveRate * seconds))
	ar := newRand(seed, 5)
	gaps := make([]float64, n)
	total := 0.0
	for i := range gaps {
		gaps[i] = ar.ExpFloat64()
		total += gaps[i]
	}
	t := 0.0
	for i := range n {
		if q := heavy(i); q >= 0 {
			w.ops = append(w.ops, q)
		} else {
			w.ops = append(w.ops, light())
		}
		t += gaps[i]
		w.at = append(w.at, time.Duration(t/total*seconds*float64(time.Second)))
	}
	return w
}

// sweepLadder is the number of inventories generated: more than two
// submitters finish in any run the benchmark makes.
const sweepLadder = 4000

// genSweep builds a Fig. 2(c) ladder of capacity-search jobs: switch
// counts 20..44 over 6-port switches, each rung a fresh seed, so every
// inventory is new to the daemon.
func genSweep(seed uint64) *workload {
	w := &workload{name: "sweep"}
	r := newRand(seed, 1)
	for i := range 2 {
		w.warmup = append(w.warmup, w.addJob("job.capacity-search", "capacity-search",
			service.CapacitySearchRequest{Switches: 12 + i, Ports: 6, Trials: 3, Seed: r.Uint64N(1 << 20)}))
	}
	for i := range sweepLadder {
		w.ops = append(w.ops, w.addJob("job.capacity-search", "capacity-search",
			service.CapacitySearchRequest{Switches: 20 + 2*(i%13), Ports: 6, Trials: 3, Seed: r.Uint64N(1 << 40)}))
	}
	return w
}

// Hot-workload shape.
const (
	hotPrefillJobs  = 800
	hotBlueprints   = 16
	hotOpsPerSecond = 4000 // ops generated per measured second; more than the daemon completes
)

// genHot builds the front-end-bound mix: cache-resident repeats, large
// designs, inline-blueprint evaluates and rewire plans, and durable
// design jobs, over a state dir pre-filled with finished jobs.
func genHot(seed uint64, seconds float64) *workload {
	w := &workload{name: "hot"}
	r := newRand(seed, 1)
	for i := range hotPrefillJobs {
		w.prefill = append(w.prefill, w.addJob("job.design", "design",
			service.DesignSpec{Switches: 8 + i%9, Ports: 6, NetworkDegree: 4, Seed: r.Uint64N(1 << 40)}))
	}
	var repeats []int
	for i := range 8 {
		d := service.DesignSpec{Switches: 20 + 2*i, Ports: 8, NetworkDegree: 5, Seed: r.Uint64N(1 << 20)}
		top := service.TopologySpec{Design: &d}
		repeats = append(repeats,
			w.add("design", "/v1/design", d),
			w.add("evaluate.estimator", "/v1/evaluate", service.EvaluateRequest{Topology: top, Seed: r.Uint64N(1 << 20), Estimator: &service.EstimatorSpec{Kind: "bisection"}}))
		if i%2 == 0 {
			after := d
			after.Seed++
			repeats = append(repeats, w.add("rewire-plan", "/v1/rewire-plan", service.RewireRequest{Before: top, After: service.TopologySpec{Design: &after}}))
		}
	}
	w.warmup = repeats

	// ~30 KB blueprints (200 switches), encoded once and shared.
	bps := make([][]byte, hotBlueprints)
	for i := range bps {
		top := jellyfish.New(jellyfish.Config{Switches: 200, Ports: 12, NetworkDegree: 8, Seed: r.Uint64N(1 << 20)})
		var b bytes.Buffer
		if err := jellyfish.WriteBlueprint(top, &b); err != nil {
			panic(err)
		}
		bps[i] = b.Bytes()
	}
	part := func(s string) []byte { return []byte(s) }

	n := int(hotOpsPerSecond * seconds)
	for i := range n {
		switch k := i % 10; {
		case k < 4:
			w.ops = append(w.ops, repeats[r.IntN(len(repeats))])
		case k < 6:
			w.ops = append(w.ops, w.add("design", "/v1/design",
				service.DesignSpec{Switches: 100 + r.IntN(201), Ports: 12, NetworkDegree: 8, Seed: r.Uint64N(1 << 40)}))
		case k == 6:
			w.reqs = append(w.reqs, request{class: "evaluate.estimator", path: "/v1/evaluate", body: [][]byte{
				part(`{"topology":{"blueprint":`), bps[r.IntN(len(bps))],
				part(fmt.Sprintf(`},"seed":%d,"estimator":{"kind":"bisection"}}`, r.Uint64N(1<<40)))}})
			w.ops = append(w.ops, len(w.reqs)-1)
		case k == 7:
			a := r.IntN(len(bps))
			b := (a + 1 + r.IntN(len(bps)-1)) % len(bps)
			w.reqs = append(w.reqs, request{class: "rewire-plan", path: "/v1/rewire-plan", body: [][]byte{
				part(`{"before":{"blueprint":`), bps[a], part(`},"after":{"blueprint":`), bps[b], part(`}}`)}})
			w.ops = append(w.ops, len(w.reqs)-1)
		default:
			w.ops = append(w.ops, w.addJob("job.design", "design",
				service.DesignSpec{Switches: 10 + r.IntN(21), Ports: 8, NetworkDegree: 5, Seed: r.Uint64N(1 << 40)}))
		}
	}
	return w
}
