// Command jfbench is the repository benchmark: it drives a live
// jellyfishd over HTTP and the cmd/experiments CLI with seeded,
// pre-generated workloads, checks every answer, and prints end-to-end
// metrics (untraced runs) or per-layer metrics (traced runs).
//
// Run it from the repository root through run.sh, which builds the
// daemon, the CLI and this harness first:
//
//	bash jfbench/run.sh --workload interactive --seed 1 --seconds 16 --trace 0
//
// Workloads are interactive, sweep, hot and figures (spec.go). The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; the lines above it are a report giving
// the runner, every metric's sample count and, in traced runs, the
// end-to-end metric each layer metric should move. The exit code is 0
// only when every answer checked out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	bin      string // directory holding jellyfishd and experiments
	work     string // scratch directory for state dirs
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "interactive, sweep, hot or figures")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 16, "measured duration in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory holding the jellyfishd and experiments binaries")
	flag.StringVar(&cfg.work, "work", ".bench_build/run", "scratch directory for daemon state")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "jfbench: -trace must be 0 or 1 and -seconds positive")
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jfbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout, cfg)
	if !rep.correct() {
		os.Exit(1)
	}
}

func run(cfg config) (*report, error) {
	w, err := genWorkload(cfg.workload, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	for _, b := range []string{"jellyfishd", "experiments"} {
		if _, err := os.Stat(filepath.Join(cfg.bin, b)); err != nil {
			return nil, fmt.Errorf("missing binary (build with run.sh): %v", err)
		}
	}
	if err := os.RemoveAll(cfg.work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.work)
	rep := &report{workload: w.name}
	if w.name == "figures" {
		err = runFigures(cfg, w, rep)
	} else {
		err = runDaemonWorkload(cfg, w, rep)
	}
	if err != nil {
		return nil, err
	}
	return rep, rep.complete(cfg.trace)
}

// A metric is one reported number with the samples behind it.
type metric struct {
	name, unit string
	value      float64
	n          int
	note       string
}

type report struct {
	workload          string
	e2e, layer        []metric
	attempted, failed int
	failures          []string
	header            []string
}

func (r *report) correct() bool { return r.failed == 0 }

// fail records a wrong or missing answer; it counts against the run.
// The first few messages are kept for the report.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) setE2E(name string, v float64, n int, note string) {
	r.e2e = append(r.e2e, metric{name: name, value: v, n: n, note: note})
}

// setLayer sets a per-layer metric, replacing an earlier value.
func (r *report) setLayer(name string, v float64, n int) {
	for i := range r.layer {
		if r.layer[i].name == name {
			r.layer[i] = metric{name: name, value: v, n: n}
			return
		}
	}
	r.layer = append(r.layer, metric{name: name, value: v, n: n})
}

// complete reports a metric the run should have set but did not.
func (r *report) complete(trace bool) error {
	got := map[string]bool{}
	for _, m := range append(r.e2e, r.layer...) {
		got[m.name] = true
	}
	for _, m := range endToEnd {
		if !got[m.name] {
			return fmt.Errorf("end-to-end metric %s not measured", m.name)
		}
	}
	for _, m := range layerMetrics {
		if trace && !got[m.name] {
			return fmt.Errorf("per-layer metric %s not measured", m.name)
		}
	}
	return nil
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
		}
	}
	return "unknown"
}

// print writes the report and, last, the JSON result line: the
// end-to-end metrics of an untraced run or the per-layer metrics of a
// traced one, each named in BENCHMARK.json.
func (r *report) print(out *os.File, cfg config) {
	ws := workloadSpecs[r.workload]
	fmt.Fprintf(out, "# jfbench workload=%s seed=%d seconds=%g trace=%v\n", r.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(out, "# runner: nproc=%d cpu=%q go=%s os=%s/%s\n", runtime.NumCPU(), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	if ws.conns > 0 {
		fmt.Fprintf(out, "# daemon: jellyfishd %s (state-dir=%v), generator: %d connections\n", strings.Join(daemonFlags, " "), ws.stateDir, ws.conns)
	}
	fmt.Fprintf(out, "# load: %s\n# loads: %s\n# bypasses: %s\n", ws.loop, ws.loads, ws.bypasses)
	for _, h := range r.header {
		fmt.Fprintf(out, "# %s\n", h)
	}
	fmt.Fprintf(out, "# ops: attempted=%d failed=%d fail_frac=%.4g\n", r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)))
	for _, f := range r.failures {
		fmt.Fprintf(out, "# FAIL %s\n", f)
	}
	units := map[string]string{}
	for _, m := range endToEnd {
		units[m.name] = m.unit
	}
	moves := map[string]string{}
	for _, m := range layerMetrics {
		units[m.name] = m.unit
		moves[m.name] = m.source + " " + m.moves
	}
	for _, m := range r.e2e {
		fmt.Fprintf(out, "e2e   %-26s %14.6g %-6s n=%-6d %s\n", m.name, m.value, units[m.name], m.n, m.note)
	}
	for _, m := range r.layer {
		fmt.Fprintf(out, "layer %-42s %14.6g %-6s n=%-6d %s\n", m.name, m.value, units[m.name], m.n, moves[m.name])
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), max(r.attempted, 1), min(r.failed, max(r.attempted, 1)), map[string]value{}}
	ms := r.e2e
	if cfg.trace {
		ms = r.layer
	}
	for _, m := range ms {
		res.Metrics[m.name] = value{m.value, units[m.name]}
	}
	b, _ := json.Marshal(res)
	fmt.Fprintln(out, string(b))
}

// phase is what one daemon workload's measured phase produced.
type phase struct {
	outs          []outcome
	wall          time.Duration
	setups        []float64
	cpu           time.Duration
	rssMB         float64
	before, after scrape
}

// latencies returns the latencies (ms) of the ops that succeeded and the
// count of ops attempted.
func (p *phase) latencies() (lat []float64, attempted int) {
	for _, o := range p.outs {
		if !o.started {
			continue
		}
		attempted++
		if o.err == nil {
			lat = append(lat, float64(o.latency())/1e6)
		}
	}
	return lat, attempted
}

// A measurement is what every workload's measured phase yields for the
// end-to-end metrics.
type measurement struct {
	setups           []float64 // seconds
	lat              []float64 // ms, ops that succeeded
	attempted, inSLO int
	wall, cpu        time.Duration
	rssMB            float64
	process          string // whose CPU and memory: "daemon" or "CLI"
}

func (r *report) setEndToEnd(m measurement) {
	tv, tl := tail(m.lat)
	r.setE2E("setup_s", median(m.setups), len(m.setups), "median of set-ups")
	r.setE2E("ops_per_s", float64(len(m.lat))/m.wall.Seconds(), len(m.lat), fmt.Sprintf("over %.3fs", m.wall.Seconds()))
	r.setE2E("latency_p50_ms", median(m.lat), len(m.lat), "")
	r.setE2E("latency_tail_ms", tv, len(m.lat), tl+" (highest percentile with >=10 samples beyond)")
	r.setE2E("slo_frac", ratio(float64(m.inSLO), float64(m.attempted)), m.attempted, "")
	r.setE2E("cpu_ms_per_op", ratio(float64(m.cpu)/1e6, float64(len(m.lat))), len(m.lat), m.process+" utime+stime over the measured phase")
	r.setE2E("rss_peak_mb", m.rssMB, 1, m.process+" peak resident set")
}

// setE2EFromPhase derives the end-to-end metrics of a daemon workload.
func (r *report) setE2EFromPhase(w *workload, p *phase) {
	m := measurement{setups: p.setups, wall: p.wall, cpu: p.cpu, rssMB: p.rssMB, process: "daemon"}
	m.lat, m.attempted = p.latencies()
	r.attempted += m.attempted
	classN := map[string]int{}
	for _, o := range p.outs {
		if !o.started {
			continue
		}
		cl := w.reqs[o.req].class
		classN[cl]++
		if o.err != nil {
			r.fail("op %d (%s): %v", o.req, cl, o.err)
		} else if float64(o.latency())/1e6 <= sloLimitMs[cl] {
			m.inSLO++
		}
	}
	var classes []string
	for cl, n := range classN {
		classes = append(classes, fmt.Sprintf("%s=%d(limit %gms)", cl, n, sloLimitMs[cl]))
	}
	slices.Sort(classes)
	r.header = append(r.header, "op classes: "+strings.Join(classes, " "))
	d := delta(p.before, p.after)
	hits, misses := d.sum("jellyfishd_cache_hits_total", `tier="resp"`), d.sum("jellyfishd_cache_misses_total", `tier="resp"`)
	lat := m.lat
	r.header = append(r.header, fmt.Sprintf("latency ms: p10=%.3g p25=%.3g p50=%.3g p75=%.3g p90=%.3g max=%.4g; resp-tier hit ratio %.3f",
		percentile(lat, 10), percentile(lat, 25), percentile(lat, 50), percentile(lat, 75), percentile(lat, 90), percentile(lat, 100), ratio(hits, hits+misses)))
	var execs []string
	for _, op := range []string{"design", "evaluate", "whatif", "capacity-search", "rewire-plan"} {
		l := `op="` + op + `"`
		execs = append(execs, fmt.Sprintf("%s=%.2fs/%d", op, d.sum("jellyfishd_op_duration_seconds_sum", l), int(d.sum("jellyfishd_op_duration_seconds_count", l))))
	}
	r.header = append(r.header, "cold execution time by op: "+strings.Join(execs, " "))
	r.setEndToEnd(m)
}
