package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"jellyfish/internal/lint"
)

// The fixture suite under testdata/src/check is a standalone module whose
// packages exercise every analyzer: positive cases carry // want
// expectations, negative controls carry none, and suppressed sites check
// that allows work. Expectation grammar, analysistest-style:
//
//	code // want `regex` `regex`
//	// want(+1) `regex`        (expectation for the next line)
//
// Each expectation must match a finding on its line, and every finding
// must be claimed by an expectation.

var (
	wantRe = regexp.MustCompile(`// want(?:\((([+-]?\d+))\))? (.+)$`)
	argRe  = regexp.MustCompile("`([^`]*)`")
)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

func loadExpectations(t *testing.T, root string) []*expectation {
	t.Helper()
	var out []*expectation
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			offset := 0
			if m[1] != "" {
				offset, _ = strconv.Atoi(m[1])
			}
			args := argRe.FindAllStringSubmatch(m[3], -1)
			if len(args) == 0 {
				return fmt.Errorf("%s:%d: // want with no backquoted regex", path, i+1)
			}
			for _, a := range args {
				re, err := regexp.Compile(a[1])
				if err != nil {
					return fmt.Errorf("%s:%d: bad want regex: %v", path, i+1, err)
				}
				out = append(out, &expectation{file: path, line: i + 1 + offset, re: re})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAnalyzersOnFixtures(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src", "check"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.Load(root, "./...")
	if err != nil {
		t.Fatalf("load fixtures: %v", err)
	}
	if len(pkgs) < 6 {
		t.Fatalf("loaded %d fixture packages, want at least 6", len(pkgs))
	}
	findings := lint.Run(pkgs, lint.All())
	expectations := loadExpectations(t, root)

	for _, f := range findings {
		text := f.Analyzer + ": " + f.Message
		matched := false
		for _, e := range expectations {
			if e.file == f.Pos.Filename && e.line == f.Pos.Line && e.re.MatchString(text) {
				e.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, e := range expectations {
		if !e.hit {
			t.Errorf("%s:%d: expected a finding matching %q, got none", e.file, e.line, e.re)
		}
	}
}

// TestFixturesCoverEveryAnalyzer guards the suite itself: each analyzer
// (plus the grammar pseudo-analyzer) must produce at least one finding
// in the fixtures, so a silently broken analyzer
// cannot hide behind an accidentally empty suite.
func TestFixturesCoverEveryAnalyzer(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src", "check"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.Load(root, "./...")
	if err != nil {
		t.Fatalf("load fixtures: %v", err)
	}
	counts := map[string]int{}
	for _, f := range lint.Run(pkgs, lint.All()) {
		counts[f.Analyzer]++
	}
	for _, a := range lint.All() {
		if counts[a.Name] == 0 {
			t.Errorf("analyzer %s produced no fixture findings", a.Name)
		}
	}
	if counts["jellyvet"] == 0 {
		t.Errorf("grammar misuse produced no fixture findings")
	}
}

// TestRepoIsClean pins the audited state of the tree: jellyvet over the
// whole module must report nothing. A new violation anywhere fails this
// test with the same file:line message the CI job prints.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.Load(root, "./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	for _, f := range lint.Run(pkgs, lint.All()) {
		t.Errorf("%s", f)
	}
}
