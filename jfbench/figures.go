package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"time"

	"jellyfish"
	"jellyfish/internal/experiments"
	"jellyfish/internal/flowsim"
	"jellyfish/internal/packetsim"
	"jellyfish/internal/rng"
	"jellyfish/internal/routing"
	"jellyfish/internal/traffic"
)

// timingLine matches the CLI's per-experiment wall-clock line, the only
// output that differs between runs of one seed.
var timingLine = regexp.MustCompile(`(?m)^  \[\S+ completed in \S+\]\n`)

// cliRun is one exec of the experiments CLI.
type cliRun struct {
	out   []byte
	wall  time.Duration
	cpu   time.Duration
	rssMB float64
}

func runCLI(bin string, args ...string) (cliRun, error) {
	cmd := exec.Command(bin, args...)
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return cliRun{}, fmt.Errorf("experiments %v: %v: %s", args, err, stderr.String())
	}
	r := cliRun{out: out.Bytes(), wall: time.Since(t0)}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		r.rssMB = float64(ru.Maxrss) / 1024 // kB on Linux
	}
	return r, nil
}

// runFigures runs the batch workload: each experiment is one exec of the
// CLI at -workers 2, repeated in whole batches until the measured
// duration has passed. Every output must equal the in-process
// reference for the seed (outputs are identical for every worker
// count).
func runFigures(cfg config, w *workload, rep *report) error {
	bin := filepath.Join(cfg.bin, "experiments")
	var setups []float64
	for range workloadSpecs[w.name].setupReps {
		r, err := runCLI(bin)
		if err != nil {
			return err
		}
		setups = append(setups, r.wall.Seconds())
	}
	seed := strconv.FormatUint(cfg.seed, 10)
	var lat []float64
	var cpu time.Duration
	var rss float64
	first := map[string]cliRun{}
	outs := map[string][]byte{}
	start := time.Now()
	for time.Since(start) < time.Duration(cfg.seconds*float64(time.Second)) {
		for _, id := range w.figures {
			r, err := runCLI(bin, "-seed", seed, "-workers", "2", id)
			if err != nil {
				return err
			}
			rep.attempted++
			out := timingLine.ReplaceAll(r.out, nil)
			if prev, ok := outs[id]; ok && !bytes.Equal(prev, out) {
				rep.fail("%s: output differs between batches", id)
			}
			if _, ok := first[id]; !ok {
				first[id], outs[id] = r, out
			}
			lat = append(lat, float64(r.wall)/1e6)
			cpu += r.cpu
			rss = max(rss, r.rssMB)
		}
	}
	wall := time.Since(start)

	// Reference outputs, computed in-process after the measured phase.
	reference := func(workers int) time.Duration {
		var wall time.Duration
		for _, id := range w.figures {
			var buf bytes.Buffer
			t0 := time.Now()
			experiments.Lookup(id)(experiments.Options{Seed: cfg.seed, Workers: workers}).Fprint(&buf)
			wall += time.Since(t0)
			if got := bytes.TrimRight(outs[id], "\n"); !bytes.Equal(got, bytes.TrimRight(buf.Bytes(), "\n")) {
				rep.fail("%s: CLI output differs from the in-process reference for seed %d at %d workers", id, cfg.seed, workers)
			}
		}
		return wall
	}
	reference(2)

	m := measurement{setups: setups, lat: lat, attempted: len(lat), wall: wall, cpu: cpu, rssMB: rss, process: "CLI (rusage)"}
	for _, l := range lat {
		if l <= sloLimitMs["experiment"] {
			m.inSLO++
		}
	}
	rep.header = append(rep.header, fmt.Sprintf("samples: setups=%d (CLI exec to exit, no experiment) experiments=%d (%d per batch); op class experiment limit %gms", len(setups), len(lat), len(w.figures), sloLimitMs["experiment"]))
	rep.setEndToEnd(m)
	if !cfg.trace {
		return nil
	}

	// Traced: the experiments in-process at one worker (whose output must
	// match too) and at two under spans, for the parallel efficiency, and
	// once more at two untraced, for the tracing overhead; then the
	// transport stacks of the packet-vs-fluid ablation called layer by
	// layer. Daemon-only layers read 0.
	t1 := reference(1)
	tr := newTracer(true)
	var t2 time.Duration
	for _, id := range w.figures {
		sp := tr.begin("experiments."+id, 0)
		experiments.Lookup(id)(experiments.Options{Seed: cfg.seed, Workers: 2})
		tr.end(sp)
		t2 += tr.spans[sp].end - tr.spans[sp].start
	}
	untraced := reference(2)
	for i, servers := range []int{60, 120, 240} {
		ablationStacks(tr, i, servers, cfg.seed)
	}
	setMetricLayers(rep, w, &phase{before: scrape{}, after: scrape{}}, aggregate(tr.spans))
	v, n := aggregate(tr.spans).meanMs("packetsim.simulate")
	rep.setLayer("packetsim.simulate_ms_mean", v, n)
	rep.setLayer("parallel.efficiency", float64(t1)/(2*float64(t2)), len(w.figures))
	for _, id := range w.figures {
		rep.setLayer("experiments.wall_s."+id, first[id].wall.Seconds(), 1)
	}
	rep.setLayer("trace.overhead_frac", 1-untraced.Seconds()/t2.Seconds(), len(w.figures))
	return nil
}

// ablationStacks evaluates one instance of the packet-vs-fluid ablation
// (kSP-8 routes, MPTCP with 8 coupled subflows) through each stack.
func ablationStacks(tr *tracer, q, servers int, seed uint64) {
	src := rng.New(seed).Split("jfbench-ablation").SplitN("size", q)
	var top *jellyfish.Topology
	tr.do("topology.build", q, func() { top = jellyfish.SpreadServers(servers/3, 12, servers, seed+uint64(q)) })
	pat := traffic.RandomPermutation(top.ServerSwitches(), src.Split("traffic"))
	var table *routing.Table
	tr.do("routing.compile", q, func() {
		table = routing.NewCompiled(top.Graph).KShortest(routing.PairsForPattern(pat), 8, 1)
	})
	tr.do("flowsim.simulate", q, func() {
		flowsim.NewSim(0, top.NumServers()).Simulate(pat.Flows, table, flowsim.MPTCP8, nil)
	})
	tr.do("packetsim.simulate", q, func() {
		packetsim.NewSim(0, top.NumServers()).Simulate(pat.Flows, table, packetsim.Config{Subflows: 8, Coupled: true, Horizon: 6000}, src.Split("des"))
	})
}
