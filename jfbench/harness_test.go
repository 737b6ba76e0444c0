package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// Self-tests of the harness: run with `go test` inside jfbench/.

func TestScheduleDeterministicPerSeed(t *testing.T) {
	for _, name := range []string{"interactive", "sweep", "hot"} {
		a, err := genWorkload(name, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genWorkload(name, 7, 2)
		c, _ := genWorkload(name, 8, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generations at seed 7 differ", name)
		}
		if reflect.DeepEqual(a.reqs, c.reqs) {
			t.Errorf("%s: seeds 7 and 8 generate the same requests", name)
		}
		if len(a.ops) == 0 {
			t.Errorf("%s: no measured ops", name)
		}
	}
}

func TestInteractiveSchedule(t *testing.T) {
	w, _ := genWorkload("interactive", 3, 16)
	if n := int(math.Round(interactiveRate * 16)); len(w.ops) != n || len(w.at) != n {
		t.Fatalf("got %d ops and %d arrivals, want %d of each", len(w.ops), len(w.at), n)
	}
	for i := 1; i < len(w.at); i++ {
		if w.at[i] < w.at[i-1] {
			t.Fatalf("arrival %d precedes arrival %d", i, i-1)
		}
	}
	if last := w.at[len(w.at)-1]; last < 16*time.Second-time.Millisecond || last > 16*time.Second {
		t.Errorf("last arrival at %v, want the end of the 16s phase", last)
	}
	// Distinct requests outnumber the daemon's 2x128 warm cache, and
	// a run at the benchmark's duration has enough ops for a p99.
	if len(w.ops) < 1000 {
		t.Errorf("%d ops in 16s; p99 needs 1000", len(w.ops))
	}
	if len(w.reqs) <= 256 {
		t.Errorf("%d distinct requests; want more than the 256 cache entries", len(w.reqs))
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 99}, {999, 95}, {10000, 99.9}, {200, 95}, {199, 90}, {100, 90}, {40, 75}, {20, 50}, {19, 100}, {3, 100}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, label := tail(xs); v != 990 || label != "p99" {
		t.Errorf("tail of 1..1000 = %v %s, want 990 p99 (ten samples beyond)", v, label)
	}
	if v, label := tail([]float64{3, 1, 2}); v != 3 || label != "max" {
		t.Errorf("tail of three samples = %v %s, want the maximum", v, label)
	}
	if got := percentile([]float64{5, 1, 4, 2, 3}, 50); got != 3 {
		t.Errorf("median of 1..5 = %v", got)
	}
}

const exposition = `# HELP jellyfishd_cache_hits_total Warm-state cache hits by worker and tier.
# TYPE jellyfishd_cache_hits_total counter
jellyfishd_cache_hits_total{tier="resp",worker="0"} 5
jellyfishd_cache_hits_total{tier="resp",worker="1"} 7
jellyfishd_cache_hits_total{tier="sim",worker="0"} 2
jellyfishd_scheduler_queue_wait_seconds_bucket{le="0.001"} 3
jellyfishd_scheduler_queue_wait_seconds_bucket{le="+Inf"} 3
jellyfishd_scheduler_queue_wait_seconds_sum 0.0015
jellyfishd_scheduler_queue_wait_seconds_count 3
`

const exposition2 = `jellyfishd_cache_hits_total{tier="resp",worker="0"} 15
jellyfishd_cache_hits_total{tier="resp",worker="1"} 7
jellyfishd_cache_hits_total{tier="sim",worker="0"} 2
jellyfishd_scheduler_queue_wait_seconds_bucket{le="0.001"} 5
jellyfishd_scheduler_queue_wait_seconds_bucket{le="0.5"} 12
jellyfishd_scheduler_queue_wait_seconds_bucket{le="+Inf"} 13
jellyfishd_scheduler_queue_wait_seconds_sum 2.5015
jellyfishd_scheduler_queue_wait_seconds_count 13
`

func TestMetricsParseAndDelta(t *testing.T) {
	before, err := parseMetrics(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMetrics(strings.NewReader(exposition2))
	if err != nil {
		t.Fatal(err)
	}
	if got := before.sum("jellyfishd_cache_hits_total", `tier="resp"`); got != 12 {
		t.Errorf("resp hits = %v, want 12", got)
	}
	d := delta(before, after)
	if got := d.sum("jellyfishd_cache_hits_total", `tier="resp"`); got != 10 {
		t.Errorf("resp hit delta = %v, want 10", got)
	}
	if got := d.sum("jellyfishd_cache_hits_total", `tier="sim"`); got != 0 {
		t.Errorf("sim hit delta = %v, want 0", got)
	}
	if got := d.histMean("jellyfishd_scheduler_queue_wait_seconds"); got != 0.25 {
		t.Errorf("queue wait mean over the delta = %v, want 0.25", got)
	}
	// Ten new observations: 2 at most 1ms, 7 in (1ms, 0.5s], 1 above.
	// The bucket "0.5" is absent before (elided above the highest
	// non-empty bucket), so its cumulative count then was the total, 3.
	const qw = "jellyfishd_scheduler_queue_wait_seconds"
	if got := histQuantile(before, after, qw, 0.5); got != 0.5 {
		t.Errorf("median queue wait bucket = %v, want 0.5", got)
	}
	if got := histQuantile(before, after, qw, 0.2); got != 0.001 {
		t.Errorf("p20 queue wait bucket = %v, want 0.001", got)
	}
	if got := histQuantile(before, before, qw, 0.99); got != 0 {
		t.Errorf("quantile of an empty delta = %v, want 0", got)
	}
	if _, err := parseMetrics(strings.NewReader("novalue\n")); err == nil {
		t.Error("a line without a value parsed")
	}
}

func TestProcReaders(t *testing.T) {
	cpu, err := parseStatCPU("1234 (a b) S 1 2 3 4 5 6 7 8 9 10 250 150 0 0 20 0")
	if err != nil || cpu != 4*time.Second {
		t.Errorf("parseStatCPU = %v, %v; want 4s (400 ticks)", cpu, err)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("malformed stat line parsed")
	}
	mb, err := parseHWM("Name:\tx\nVmHWM:\t  2048 kB\nVmRSS:\t 1024 kB\n")
	if err != nil || mb != 2 {
		t.Errorf("parseHWM = %v, %v; want 2 MB", mb, err)
	}
	// The live readers agree with this process's own accounting.
	pid := os.Getpid()
	for start := time.Now(); time.Since(start) < 50*time.Millisecond; {
	}
	if cpu, err := procCPU(pid); err != nil || cpu <= 0 {
		t.Errorf("procCPU(self) = %v, %v; want > 0 after spinning", cpu, err)
	}
	if mb, err := procHWM(pid); err != nil || mb <= 0 {
		t.Errorf("procHWM(self) = %v, %v", mb, err)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "op", start: 0, end: 10, parent: -1},
		{name: "a", start: 1, end: 4, parent: 0},
		{name: "b", start: 3, end: 6, parent: 0},  // overlaps a
		{name: "c", start: 8, end: 12, parent: 0}, // runs past its parent
	}
	got := selfTimes(spans)
	want := []time.Duration{10 - 5 - 2, 3, 3, 4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// TestBenchmarkJSONInStep keeps BENCHMARK.json and spec.go naming the
// same metrics and workloads.
func TestBenchmarkJSONInStep(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	if err := dec.Decode(&bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
		if _, ok := workloadSpecs[w.Name]; !ok {
			t.Errorf("workload %s has no spec", w.Name)
		}
	}
	if len(names) != len(workloadSpecs) {
		t.Errorf("BENCHMARK.json lists %v; spec.go has %d workloads", names, len(workloadSpecs))
	}
	if len(bench.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go", len(bench.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if bench.EndToEnd[i].Name != m.name || bench.EndToEnd[i].Unit != m.unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %v, spec.go %v", i, bench.EndToEnd[i], m)
		}
	}
	if len(bench.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go", len(bench.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if bench.PerLayer[i].Name != m.name || bench.PerLayer[i].Unit != m.unit {
			t.Errorf("per-layer %d: BENCHMARK.json %v, spec.go %s %s", i, bench.PerLayer[i], m.name, m.unit)
		}
	}
}
