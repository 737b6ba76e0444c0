package lint

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The determinism analyzer's package list and the runtime determinism
// suites (internal/experiments/determinism_test.go and
// internal/service/determinism_test.go) pin the same invariant from two
// sides: the analyzer rejects nondeterministic constructs at build time,
// the suites catch whatever slips through at run time. This test keeps
// the two views in sync: every declared package must sit inside the
// suites' dependency cone (so the runtime check actually exercises it),
// and every module-internal package in that cone must either be declared
// or appear below with a reviewed reason. Adding a new internal package
// to the cone therefore forces an explicit decision.
var undeclaredDeterminismDeps = map[string]string{
	"jellyfish/internal/parallel":    "the one concurrency package: its pool is the deterministic-ordering mechanism, not a client of it",
	"jellyfish/internal/rng":         "wraps math/rand constructors by design; stream discipline is its contract, pinned by its own tests",
	"jellyfish/internal/resarena":    "pure slice-capacity arithmetic with no iteration, time, or randomness to police",
	"jellyfish/internal/topology":    "construction-time only; determinism is pinned end to end through capsearch and experiments",
	"jellyfish/internal/placement":   "construction-time only; candidate for declaration once its miswiring paths grow",
	"jellyfish/internal/persist":     "storage I/O, not computation: journal/blob round-tripping is byte-exact by its own tests, and nothing it stores enters a response digest uncomputed",
	"jellyfish/internal/telemetry":   "the observability core: it owns every clock read by design so kernels never touch time, and jellyvet's obsconfine analyzer keeps its data flow one-way",
	"jellyfish/internal/faultinject": "the chaos switchboard: disabled is the default and costs one atomic load; the faultconfine analyzer plus the faults-off byte-identity suite pin that an inactive schedule changes nothing",
}

func TestDeterministicPackageListInSync(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "list", "-deps", "./internal/experiments", "./internal/service")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	cone := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if strings.HasPrefix(line, "jellyfish/internal/") {
			cone[line] = true
		}
	}
	if len(cone) == 0 {
		t.Fatal("dependency cone is empty; go list output changed shape")
	}

	declared := map[string]bool{}
	for _, suffix := range DeterministicPackages {
		path := "jellyfish/" + suffix
		declared[path] = true
		if !cone[path] {
			t.Errorf("declared deterministic package %s is not in the runtime suites' dependency cone; the analyzer would enforce what no test verifies", path)
		}
		if !IsDeterministicPackage(path) {
			t.Errorf("IsDeterministicPackage(%q) = false for a declared package", path)
		}
	}
	for path := range cone {
		if declared[path] && undeclaredDeterminismDeps[path] != "" {
			t.Errorf("%s is both declared deterministic and excused in undeclaredDeterminismDeps; drop one", path)
		}
		if !declared[path] && undeclaredDeterminismDeps[path] == "" {
			t.Errorf("%s is in the determinism suites' dependency cone but neither declared in lint.DeterministicPackages nor excused in undeclaredDeterminismDeps", path)
		}
	}
	for path := range undeclaredDeterminismDeps {
		if !cone[path] {
			t.Errorf("undeclaredDeterminismDeps entry %s is no longer in the dependency cone; delete the stale excuse", path)
		}
	}
}
