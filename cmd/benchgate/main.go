// Command benchgate turns `go test -bench` output into a CI pass/fail
// signal: it compares the measured ns/op and allocs/op of budgeted
// benchmarks against the budgets recorded in BENCH_mcf.json and exits
// non-zero when any metric regresses beyond the recorded tolerance.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkMaxConcurrentFlow -benchtime 3x -benchmem . | tee bench.txt
//	go run ./cmd/benchgate -budget BENCH_mcf.json -input bench.txt
//
// With -input omitted the bench output is read from stdin. When a
// benchmark appears several times (e.g. -count=3), the best measurement
// is gated, which keeps shared-runner noise from failing honest pushes.
// A budgeted benchmark missing from the input is a failure: the gate
// must not silently pass because a benchmark was renamed or skipped.
// So is a measurement that is not finite (NaN or ±Inf), in any repeat,
// and an input line too long to scan.
//
// Budgets live in BENCH_mcf.json under "ci_budget":
//
//	"ci_budget": {
//	  "tolerance_pct": 15,
//	  "benchmarks": {
//	    "BenchmarkMaxConcurrentFlow": {"ns_per_op": 652000000, "allocs_per_op": 611}
//	  }
//	}
//
// Re-baseline by editing those numbers in the same commit that makes a
// deliberate performance trade (the diff then documents the regression).
//
// # Fold mode
//
// With -bench-file the gate is skipped and the measurements are instead
// folded into the budget file's "multicore" section — the one-command
// workflow for refreshing BENCH_mcf.json from CI's bench-multicore
// artifact (download it from the Actions run, then):
//
//	go run ./cmd/benchgate -bench-file bench-multicore.txt -budget BENCH_mcf.json
//
// -fold is the shorthand for exactly that invocation: it folds from the
// artifact's conventional filename, bench-multicore.txt, in the current
// directory (an explicit -bench-file overrides the filename):
//
//	go run ./cmd/benchgate -fold -note "ubuntu-latest 4 vCPU"
//
// -note records measurement provenance (host, caveats) in the folded
// section, so a fold from an unusual environment documents itself.
// Every other top-level section of the budget file is preserved
// byte-for-byte, in its original order; only "multicore" is replaced
// (or appended). Commit the refreshed file on its own.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

type budgetFile struct {
	CIBudget struct {
		TolerancePct float64 `json:"tolerance_pct"`
		// TolerancesPct overrides the default tolerance per metric key
		// (e.g. a wider ns_per_op band for cross-machine variance while
		// allocs_per_op — machine-independent — stays tight).
		TolerancesPct map[string]float64            `json:"tolerances_pct"`
		Benchmarks    map[string]map[string]float64 `json:"benchmarks"`
	} `json:"ci_budget"`
}

// metricUnits maps budget keys to the unit strings `go test -bench` prints.
var metricUnits = map[string]string{
	"ns_per_op":     "ns/op",
	"bytes_per_op":  "B/op",
	"allocs_per_op": "allocs/op",
}

func main() {
	budgetPath := flag.String("budget", "BENCH_mcf.json", "budget JSON (ci_budget section)")
	input := flag.String("input", "", "bench output file (default: stdin)")
	benchFile := flag.String("bench-file", "", "fold mode: parse this bench output (e.g. the downloaded bench-multicore artifact) and write its numbers into the budget file's \"multicore\" section instead of gating")
	foldFlag := flag.Bool("fold", false, "fold mode with the conventional artifact name bench-multicore.txt (shorthand for -bench-file bench-multicore.txt)")
	note := flag.String("note", "", "fold mode: provenance note recorded in the folded \"multicore\" section")
	flag.Parse()

	if *foldFlag && *benchFile == "" {
		*benchFile = "bench-multicore.txt"
	}
	if *benchFile != "" {
		if err := fold(*budgetPath, *benchFile, *note); err != nil {
			fatal("%v", err)
		}
		return
	}

	raw, err := os.ReadFile(*budgetPath)
	if err != nil {
		fatal("read budget: %v", err)
	}
	var bf budgetFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fatal("parse budget %s: %v", *budgetPath, err)
	}
	if len(bf.CIBudget.Benchmarks) == 0 {
		fatal("budget %s has no ci_budget.benchmarks section", *budgetPath)
	}

	var r io.Reader = os.Stdin
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			fatal("open input: %v", err)
		}
		defer f.Close()
		r = f
	}
	measured, err := parseBench(r)
	if err != nil {
		fatal("read bench output: %v", err)
	}
	if !gate(os.Stdout, &bf, measured) {
		fmt.Println("benchgate: regression detected")
		os.Exit(1)
	}
	fmt.Println("benchgate: all budgets met")
}

// gate compares the measured metrics with bf's budgets, printing one line
// per budgeted metric to w, and reports whether every budget is met.
func gate(w io.Writer, bf *budgetFile, measured map[string]map[string]float64) bool {
	tol := bf.CIBudget.TolerancePct
	if tol <= 0 {
		tol = 15
	}
	names := make([]string, 0, len(bf.CIBudget.Benchmarks))
	for name := range bf.CIBudget.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	for _, name := range names {
		budget := bf.CIBudget.Benchmarks[name]
		got, ok := measured[name]
		if !ok {
			fmt.Fprintf(w, "FAIL %s: benchmark missing from input (renamed or skipped?)\n", name)
			failed = true
			continue
		}
		metrics := make([]string, 0, len(budget))
		for m := range budget {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			unit, known := metricUnits[m]
			if !known {
				fmt.Fprintf(w, "FAIL %s: unknown budget metric %q\n", name, m)
				failed = true
				continue
			}
			val, ok := got[unit]
			if !ok {
				fmt.Fprintf(w, "FAIL %s: metric %s missing from input (run with -benchmem?)\n", name, unit)
				failed = true
				continue
			}
			mtol := tol
			if t, ok := bf.CIBudget.TolerancesPct[m]; ok && t > 0 {
				mtol = t
			}
			limit := budget[m] * (1 + mtol/100)
			status := "ok  "
			// NaN compares false with everything, so it is failed by name.
			if !finite(val) || val > limit {
				status = "FAIL"
				failed = true
			}
			fmt.Fprintf(w, "%s %s %s: %.0f (budget %.0f +%g%% = %.0f)\n",
				status, name, unit, val, budget[m], mtol, limit)
		}
	}
	return !failed
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// parseBench extracts per-benchmark metrics from `go test -bench` output.
// Lines look like:
//
//	BenchmarkMaxConcurrentFlow-4   3   652000000 ns/op   120537 B/op   611 allocs/op
//
// The -N GOMAXPROCS suffix is stripped. For repeated measurements the
// minimum per metric is kept, except that a value that is not finite
// sticks, so the gate sees it whatever the order of the repeats.
func parseBench(r io.Reader) (map[string]map[string]float64, error) {
	out := map[string]map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		m := out[name]
		if m == nil {
			m = map[string]float64{}
			out[name] = m
		}
		// fields[1] is the iteration count; then (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			unit := fields[i+1]
			if prev, ok := m[unit]; !ok || !finite(val) || (finite(prev) && val < prev) {
				m[unit] = val
			}
		}
	}
	return out, sc.Err()
}

// multicoreSection is the shape written under the budget file's
// "multicore" key by fold mode. Benchmarks use the same metric keys as
// ci_budget ("ns_per_op", "bytes_per_op", "allocs_per_op") so a number
// can be promoted into a budget by copy-paste.
type multicoreSection struct {
	Source     string                        `json:"source"`
	Note       string                        `json:"note,omitempty"`
	Gomaxprocs int                           `json:"gomaxprocs,omitempty"`
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

// fold rewrites budgetPath so that its top-level "multicore" section
// holds the measurements parsed from benchPath (the downloaded
// bench-multicore artifact). All other top-level sections pass through
// byte-for-byte in their original order, so a fold produces a minimal,
// reviewable diff.
func fold(budgetPath, benchPath, note string) error {
	benchRaw, err := os.ReadFile(benchPath)
	if err != nil {
		return fmt.Errorf("read bench file: %w", err)
	}
	measured, err := parseBench(bytes.NewReader(benchRaw))
	if err != nil {
		return fmt.Errorf("read bench file: %w", err)
	}
	if len(measured) == 0 {
		return fmt.Errorf("no benchmark lines found in %s", benchPath)
	}
	budgetRaw, err := os.ReadFile(budgetPath)
	if err != nil {
		return fmt.Errorf("read budget: %w", err)
	}
	out, err := foldInto(budgetRaw, measured, benchProcs(benchRaw), filepath.Base(benchPath), note)
	if err != nil {
		return fmt.Errorf("fold into %s: %w", budgetPath, err)
	}
	if err := os.WriteFile(budgetPath, out, 0o644); err != nil {
		return fmt.Errorf("write budget: %w", err)
	}
	names := make([]string, 0, len(measured))
	for name := range measured {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("benchgate: folded %d benchmark(s) from %s into %s \"multicore\":\n",
		len(names), benchPath, budgetPath)
	for _, name := range names {
		fmt.Printf("  %s\n", name)
	}
	return nil
}

// foldInto performs the pure part of fold: splice a freshly built
// "multicore" section into the budget JSON, leaving every other
// top-level section untouched (replace in place, or append when the
// section does not exist yet).
func foldInto(budget []byte, measured map[string]map[string]float64, procs int, benchFile, note string) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(budget))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return nil, fmt.Errorf("budget is not a JSON object")
	}
	type section struct {
		key string
		raw json.RawMessage
	}
	var sections []section
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("read section key: %w", err)
		}
		key, ok := keyTok.(string)
		if !ok {
			return nil, fmt.Errorf("unexpected token %v for section key", keyTok)
		}
		// json.RawMessage keeps the value's original bytes, internal
		// indentation included, which is what makes the untouched
		// sections survive the round trip verbatim.
		var val json.RawMessage
		if err := dec.Decode(&val); err != nil {
			return nil, fmt.Errorf("section %q: %w", key, err)
		}
		sections = append(sections, section{key, val})
	}

	mc := multicoreSection{
		Source:     fmt.Sprintf("folded from %s by cmd/benchgate -bench-file", benchFile),
		Note:       note,
		Gomaxprocs: procs,
		Benchmarks: map[string]map[string]float64{},
	}
	for name, byUnit := range measured {
		metrics := map[string]float64{}
		for key, unit := range metricUnits {
			if v, ok := byUnit[unit]; ok {
				metrics[key] = v
			}
		}
		if len(metrics) > 0 {
			mc.Benchmarks[name] = metrics
		}
	}
	mcRaw, err := json.MarshalIndent(mc, "  ", "  ")
	if err != nil {
		return nil, err
	}

	replaced := false
	for i := range sections {
		if sections[i].key == "multicore" {
			sections[i].raw = mcRaw
			replaced = true
		}
	}
	if !replaced {
		sections = append(sections, section{"multicore", mcRaw})
	}

	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, s := range sections {
		// A JSON string, not Go's %q: the two escape control characters
		// differently, and "\x01" is not JSON.
		key, _ := json.Marshal(s.key) // a string always marshals
		fmt.Fprintf(&buf, "  %s: %s", key, s.raw)
		if i < len(sections)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("}\n")
	return buf.Bytes(), nil
}

// benchProcs extracts the GOMAXPROCS suffix shared by the benchmark
// lines ("BenchmarkFoo-4" → 4). Returns 0 when absent or inconsistent,
// in which case the field is omitted from the folded section.
func benchProcs(benchOutput []byte) int {
	procs := 0
	sc := bufio.NewScanner(bytes.NewReader(benchOutput))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		i := strings.LastIndex(fields[0], "-")
		if i < 0 {
			return 0
		}
		n, err := strconv.Atoi(fields[0][i+1:])
		if err != nil {
			return 0
		}
		if procs == 0 {
			procs = n
		} else if procs != n {
			return 0
		}
	}
	return procs
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(2)
}
