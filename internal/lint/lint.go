// Package lint is jellyvet's analysis framework: a deliberately small,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// shape (Analyzer, Pass, Diagnostic) plus a package loader built on
// `go list -export` and the standard library's gc export-data importer.
//
// Why not x/tools? The module is dependency-free by policy (go.mod has no
// requirements), and the analyzers need only syntax, types, and
// comments — all of which the standard library provides. The framework
// mirrors the x/tools API shape closely enough that migrating to the real
// multichecker later is mechanical.
//
// The analyzers encode the repository's load-bearing invariants as
// build-breaking diagnostics (DESIGN.md §12):
//
//   - determinism: byte-identical output across worker counts — no map
//     iteration, wall-clock reads, global math/rand, or stray goroutines
//     in the declared deterministic packages;
//   - hotpath (+ rngstream): zero steady-state allocations and explicit
//     random-stream consumption in the //jellyvet:hotpath kernels;
//   - confinement: //jellyvet:confined warm-state types never escape
//     their owning shard worker;
//   - obsconfine: telemetry stays one-way in deterministic packages and
//     zero-alloc in hot paths (DESIGN.md §15);
//   - faultconfine: failpoints stay behind the faultinject.Enabled()
//     guard in deterministic packages and hot paths (DESIGN.md §16);
//   - deadexport: every internal/* export has a non-test reference
//     somewhere in the module, so the API holds only what production
//     uses. It is the one module-wide analyzer: Run gathers every
//     loaded package's references before the passes start.
//
// Every exemption is an explicit, reviewed decision:
//
//	//jellyvet:allow <analyzer>[,<analyzer>...] -- <reason>
//
// on the flagged line, the line above it, or the enclosing function's doc
// comment. Suppressions without a reason are themselves diagnostics.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name is the identifier used in diagnostics and in
	// //jellyvet:allow comments.
	Name string
	// Doc is the one-paragraph description printed by `jellyvet -help`.
	Doc string
	// Run inspects the package and reports findings via pass.Report.
	Run func(pass *Pass)
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// refs holds the references of every loaded package, for the
	// module-wide deadexport analyzer.
	refs *moduleRefs
	// report receives raw diagnostics; the driver applies suppression.
	report func(Diagnostic)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one raw finding inside a package.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Finding is a resolved, user-facing diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Run executes the analyzers over the loaded packages and returns the
// unsuppressed findings sorted by position. Misuse of the annotation
// grammar itself (a bare //jellyvet:allow with no reason, or an allow
// naming an unknown analyzer) is reported under the pseudo-analyzer
// "jellyvet" so that suppressions stay reviewable.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	refs := collectRefs(pkgs)
	var findings []Finding
	for _, pkg := range pkgs {
		ann := scanAnnotations(pkg.Fset, pkg.Files)
		findings = append(findings, ann.misuse(pkg.Fset, known)...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				refs:      refs,
			}
			pass.report = func(d Diagnostic) {
				if ann.allowed(a.Name, pkg.Fset, d.Pos) {
					return
				}
				findings = append(findings, Finding{
					Pos:      pkg.Fset.Position(d.Pos),
					Analyzer: a.Name,
					Message:  d.Message,
				})
			}
			a.Run(pass)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings
}

// All returns jellyvet's seven analyzers.
func All() []*Analyzer {
	return []*Analyzer{Determinism, Hotpath, RNGStream, Confinement, Obsconfine, Faultconfine, DeadExport}
}

// typeInvolves reports whether t is named (or is a pointer / slice /
// array / map / chan of a type named) one of the given type objects.
func typeInvolves(t types.Type, objs map[*types.TypeName]bool) bool {
	seen := map[types.Type]bool{}
	var walk func(t types.Type) bool
	walk = func(t types.Type) bool {
		if t == nil || seen[t] {
			return false
		}
		seen[t] = true
		switch tt := t.(type) {
		case *types.Named:
			if objs[tt.Obj()] {
				return true
			}
			return walk(tt.Underlying())
		case *types.Pointer:
			return walk(tt.Elem())
		case *types.Slice:
			return walk(tt.Elem())
		case *types.Array:
			return walk(tt.Elem())
		case *types.Map:
			return walk(tt.Key()) || walk(tt.Elem())
		case *types.Chan:
			return walk(tt.Elem())
		}
		return false
	}
	return walk(t)
}
