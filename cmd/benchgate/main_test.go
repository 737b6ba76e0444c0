package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

const foldBudget = `{
  "benchmark": "BenchmarkMaxConcurrentFlow",
  "environment": {
    "cores": 1,
    "note": "dev container"
  },
  "ci_budget": {
    "tolerance_pct": 15,
    "benchmarks": {
      "BenchmarkMaxConcurrentFlow": {"ns_per_op": 652000000, "allocs_per_op": 611}
    }
  }
}
`

const foldBench = `goos: linux
goarch: amd64
BenchmarkMaxConcurrentFlow-4             3   498000000 ns/op   120537 B/op   611 allocs/op
BenchmarkMaxConcurrentFlowParallel-4     3   201000000 ns/op   130001 B/op   702 allocs/op
PASS
`

// parse is parseBench on a string, failing the test on a scan error.
func parse(t testing.TB, bench string) map[string]map[string]float64 {
	t.Helper()
	out, err := parseBench(strings.NewReader(bench))
	if err != nil {
		t.Fatalf("parseBench: %v", err)
	}
	return out
}

func TestParseBenchKeepsMinimumOfRepeats(t *testing.T) {
	out := parse(t, "BenchmarkX-4 3 500 ns/op 10 allocs/op\nBenchmarkX-4 3 400 ns/op 12 allocs/op\n")
	m := out["BenchmarkX"]
	if m == nil {
		t.Fatalf("BenchmarkX missing: %v", out)
	}
	if m["ns/op"] != 400 || m["allocs/op"] != 10 {
		t.Fatalf("want per-metric minimum (400 ns/op, 10 allocs/op), got %v", m)
	}
}

func TestFoldAppendsMulticoreAndPreservesOtherSections(t *testing.T) {
	measured := parse(t, foldBench)
	out, err := foldInto([]byte(foldBudget), measured, benchProcs([]byte(foldBench)), "bench-multicore.txt", "test note")
	if err != nil {
		t.Fatalf("foldInto: %v", err)
	}
	got := string(out)

	// Untouched sections must survive byte-for-byte, in order.
	for _, verbatim := range []string{
		`  "benchmark": "BenchmarkMaxConcurrentFlow",`,
		"  \"environment\": {\n    \"cores\": 1,\n    \"note\": \"dev container\"\n  },",
		`      "BenchmarkMaxConcurrentFlow": {"ns_per_op": 652000000, "allocs_per_op": 611}`,
	} {
		if !strings.Contains(got, verbatim) {
			t.Errorf("folded output lost verbatim section fragment %q:\n%s", verbatim, got)
		}
	}
	if strings.Index(got, `"benchmark"`) > strings.Index(got, `"environment"`) {
		t.Errorf("section order not preserved:\n%s", got)
	}

	for _, want := range []string{
		`"multicore"`,
		`"gomaxprocs": 4`,
		`"ns_per_op": 498000000`,
		`"BenchmarkMaxConcurrentFlowParallel"`,
		`folded from bench-multicore.txt`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("folded output missing %q:\n%s", want, got)
		}
	}
}

func TestFoldReplacesExistingMulticoreIdempotently(t *testing.T) {
	measured := parse(t, foldBench)
	procs := benchProcs([]byte(foldBench))
	once, err := foldInto([]byte(foldBudget), measured, procs, "bench-multicore.txt", "")
	if err != nil {
		t.Fatalf("first fold: %v", err)
	}
	twice, err := foldInto(once, measured, procs, "bench-multicore.txt", "")
	if err != nil {
		t.Fatalf("second fold: %v", err)
	}
	if string(once) != string(twice) {
		t.Fatalf("fold is not idempotent:\n--- once ---\n%s\n--- twice ---\n%s", once, twice)
	}
	if n := strings.Count(string(twice), `"multicore"`); n != 1 {
		t.Fatalf("want exactly one multicore section after refold, got %d", n)
	}
}

func TestFoldRejectsNonObjectBudget(t *testing.T) {
	if _, err := foldInto([]byte(`[1, 2]`), map[string]map[string]float64{}, 0, "b.txt", ""); err == nil {
		t.Fatal("want error for non-object budget, got nil")
	}
}

// A line longer than the scanner's 1 MiB buffer is a read error, not a
// silently truncated input whose benchmarks then read as missing.
func TestParseBenchReportsOverlongLine(t *testing.T) {
	in := "BenchmarkX-4 3 500 ns/op\n" + strings.Repeat("x", 1<<20+1) + "\n"
	if _, err := parseBench(strings.NewReader(in)); err == nil {
		t.Fatal("want a scan error for a line over 1 MiB, got nil")
	}
}

// NaN compares false with every limit, so a gate written as val > limit
// lets it through; any measurement that is not finite must fail, in any
// repeat, while a finite one within budget passes.
func TestGateFailsNonFiniteMeasurement(t *testing.T) {
	var bf budgetFile
	bf.CIBudget.Benchmarks = map[string]map[string]float64{"BenchmarkX": {"ns_per_op": 1000}}
	for _, tc := range []struct {
		bench string
		pass  bool
	}{
		{"BenchmarkX-4 3 900 ns/op\n", true},
		{"BenchmarkX-4 3 NaN ns/op\n", false},
		{"BenchmarkX-4 3 +Inf ns/op\n", false},
		{"BenchmarkX-4 3 -Inf ns/op\n", false},
		{"BenchmarkX-4 3 NaN ns/op\nBenchmarkX-4 3 900 ns/op\n", false},
		{"BenchmarkX-4 3 900 ns/op\nBenchmarkX-4 3 NaN ns/op\n", false},
		{"BenchmarkX-4 3 -Inf ns/op\nBenchmarkX-4 3 900 ns/op\n", false},
	} {
		var out strings.Builder
		if got := gate(&out, &bf, parse(t, tc.bench)); got != tc.pass {
			t.Errorf("%q: gate passed = %v, want %v; output:\n%s", tc.bench, got, tc.pass, out.String())
		}
	}
}

// FuzzFoldInto checks the budget-file decoder: on any input, foldInto
// either returns an error or valid JSON whose top-level sections other
// than "multicore" are the input's, byte for byte and in their order.
func FuzzFoldInto(f *testing.F) {
	seed, err := os.ReadFile("../../BENCH_mcf.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(foldBudget))
	f.Add([]byte(`{"a\u0001": 1, "multicore": {}}`)) // a key Go's %q would quote as invalid JSON
	measured := parse(f, foldBench)
	procs := benchProcs([]byte(foldBench))
	f.Fuzz(func(t *testing.T, budget []byte) {
		out, err := foldInto(budget, measured, procs, "bench-multicore.txt", "")
		if err != nil {
			return
		}
		if !json.Valid(out) {
			t.Fatalf("folded output is not valid JSON:\n%s", out)
		}
		in, got := otherSections(t, budget), otherSections(t, out)
		if len(in) != len(got) {
			t.Fatalf("%d sections besides multicore in, %d out:\n%s", len(in), len(got), out)
		}
		for i := range in {
			if in[i].key != got[i].key || !bytes.Equal(in[i].raw, got[i].raw) {
				t.Fatalf("section %d: %q %s in, %q %s out", i, in[i].key, in[i].raw, got[i].key, got[i].raw)
			}
		}
	})
}

type rawSection struct {
	key string
	raw json.RawMessage
}

// otherSections reads the top-level key/value pairs of a JSON object, in
// order and with each value's bytes as written, skipping "multicore".
func otherSections(t *testing.T, data []byte) []rawSection {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	if _, err := dec.Token(); err != nil {
		t.Fatalf("read object: %v", err)
	}
	var out []rawSection
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("read key: %v", err)
		}
		var s rawSection
		s.key, _ = tok.(string)
		if err := dec.Decode(&s.raw); err != nil {
			t.Fatalf("section %q: %v", s.key, err)
		}
		if s.key != "multicore" {
			out = append(out, s)
		}
	}
	return out
}
