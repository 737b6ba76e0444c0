package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeadExport keeps the internal/* API down to what the program uses:
// an export that only tests reference grows the package, hides which
// entry points are real, and keeps oracles and conveniences in
// production files. It is the one module-wide analyzer; Run collects
// every loaded package's references before any pass starts.
var DeadExport = &Analyzer{
	Name: "deadexport",
	Doc: `flag internal/* exports that no non-test code references

Flags every exported function, method, type, var and const declared in
an internal/* package that no non-test file of a loaded package
references; the loader never parses _test.go files. A method also
counts as used when values of its type are converted to an interface
somewhere and the type implements, with matching signatures, an
interface the program names that has the method. String and Error
always count, since fmt and errors reach them through any. References
are gathered across all loaded packages, so run it over the whole
module: on a subset, uses from the packages left out are not seen.
Delete the export, unexport it, or move a test-only oracle into the
_test.go file that compares against it.`,
	Run: runDeadExport,
}

// moduleRefs is what deadexport needs from the whole load. Dependencies
// come from export data, so a package's own objects and the objects
// its importers see are distinct values; both sides meet in objKey, and
// method signatures are compared as path-qualified strings.
type moduleRefs struct {
	// used holds the objKey of every referenced package-level object
	// and method.
	used map[string]bool
	// boxed holds the objKey of every named type whose values (or
	// pointers) are converted to an interface somewhere.
	boxed map[string]bool
	// ifaces maps a method name to the interfaces that have it, each as
	// method name → signature.
	ifaces map[string][]map[string]string
	walked map[types.Type]bool
}

func collectRefs(pkgs []*Package) *moduleRefs {
	r := &moduleRefs{
		used:   map[string]bool{},
		boxed:  map[string]bool{},
		ifaces: map[string][]map[string]string{},
		walked: map[types.Type]bool{},
	}
	for _, pkg := range pkgs {
		for _, obj := range pkg.TypesInfo.Uses {
			if key := objKey(obj); key != "" {
				r.used[key] = true
			}
			r.walkIfaces(obj.Type())
		}
		for _, tv := range pkg.TypesInfo.Types {
			r.walkIfaces(tv.Type)
		}
		for _, inst := range pkg.TypesInfo.Instances {
			for i := 0; i < inst.TypeArgs.Len(); i++ {
				r.box(inst.TypeArgs.At(i))
			}
		}
		for _, f := range pkg.Files {
			r.findBoxing(pkg.TypesInfo, f)
		}
	}
	return r
}

// objKey names a package-level object or method by package path,
// receiver type and name; it is "" for anything else.
func objKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Origin().Type().(*types.Signature).Recv(); recv != nil {
			if n := namedOf(recv.Type()); n != nil {
				return obj.Pkg().Path() + "." + n.Obj().Name() + "." + obj.Name()
			}
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// namedOf returns the named type t is or points to, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// walkIfaces records the interfaces t is, points to, holds, or takes
// and returns as a function: the interfaces a value can be asserted to.
func (r *moduleRefs) walkIfaces(t types.Type) {
	if t == nil || r.walked[t] {
		return
	}
	r.walked[t] = true
	switch tt := types.Unalias(t).(type) {
	case *types.Named:
		if it, ok := tt.Underlying().(*types.Interface); ok {
			r.walkIfaces(it)
		}
	case *types.Interface:
		sigs := map[string]string{}
		for i := 0; i < tt.NumMethods(); i++ {
			sigs[tt.Method(i).Name()] = sigString(tt.Method(i))
		}
		for name := range sigs {
			r.ifaces[name] = append(r.ifaces[name], sigs)
		}
	case *types.Map:
		r.walkIfaces(tt.Key())
		r.walkIfaces(tt.Elem())
	case interface{ Elem() types.Type }: // pointer, slice, array, chan
		r.walkIfaces(tt.Elem())
	case *types.Signature:
		for _, tuple := range []*types.Tuple{tt.Params(), tt.Results()} {
			for i := 0; i < tuple.Len(); i++ {
				r.walkIfaces(tuple.At(i).Type())
			}
		}
	}
}

// sigString spells a method's signature with path-qualified types and
// without parameter names, which implementations may choose freely.
func sigString(m *types.Func) string {
	sig := m.Type().(*types.Signature)
	qual := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteString("(")
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), qual) + ",")
		}
		b.WriteString(")")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// box records that values of t enter an interface, along with the
// types t embeds, whose promoted methods travel with it.
func (r *moduleRefs) box(t types.Type) {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return
	}
	key := objKey(n.Obj())
	if r.boxed[key] {
		return
	}
	r.boxed[key] = true
	if st, ok := n.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Embedded() {
				r.box(st.Field(i).Type())
			}
		}
	}
}

// findBoxing records the concrete types the file converts to an
// interface: at conversions, call arguments, assignments, typed var
// declarations, returns, composite literal elements and channel sends.
func (r *moduleRefs) findBoxing(info *types.Info, f *ast.File) {
	flow := func(expr ast.Expr, dst types.Type) {
		if dst == nil || !types.IsInterface(dst) {
			return
		}
		if tv, ok := info.Types[expr]; ok && tv.Type != nil && !types.IsInterface(tv.Type) {
			r.box(tv.Type)
		}
	}
	var results []*types.Tuple // enclosing functions' results, innermost last
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.FuncDecl:
			if nn.Body != nil {
				results = append(results, info.Defs[nn.Name].Type().(*types.Signature).Results())
				ast.Inspect(nn.Body, visit)
				results = results[:len(results)-1]
			}
			return false
		case *ast.FuncLit:
			results = append(results, info.Types[nn].Type.(*types.Signature).Results())
			ast.Inspect(nn.Body, visit)
			results = results[:len(results)-1]
			return false
		case *ast.ReturnStmt:
			if res := results[len(results)-1]; res.Len() == len(nn.Results) {
				for i, e := range nn.Results {
					flow(e, res.At(i).Type())
				}
			}
		case *ast.CallExpr:
			if tv := info.Types[nn.Fun]; tv.IsType() {
				if len(nn.Args) == 1 {
					flow(nn.Args[0], tv.Type)
				}
			} else if sig, ok := tv.Type.(*types.Signature); ok {
				params := sig.Params()
				for i, arg := range nn.Args {
					if sig.Variadic() && i >= params.Len()-1 {
						// f(xs...) passes the slice through; builtins
						// such as append(b, s...) may take a non-slice.
						if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok && !nn.Ellipsis.IsValid() {
							flow(arg, s.Elem())
						}
					} else if i < params.Len() {
						flow(arg, params.At(i).Type())
					}
				}
			}
		case *ast.AssignStmt:
			if len(nn.Lhs) == len(nn.Rhs) {
				for i := range nn.Lhs {
					flow(nn.Rhs[i], info.TypeOf(nn.Lhs[i]))
				}
			}
		case *ast.ValueSpec:
			if nn.Type != nil && len(nn.Names) == len(nn.Values) {
				for _, v := range nn.Values {
					flow(v, info.TypeOf(nn.Type))
				}
			}
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(nn.Chan).Underlying().(*types.Chan); ok {
				flow(nn.Value, ch.Elem())
			}
		case *ast.CompositeLit:
			compositeFlows(info, nn, flow)
		}
		return true
	}
	ast.Inspect(f, visit)
}

// compositeFlows passes each element of lit, with the type of the slot
// it fills, to flow.
func compositeFlows(info *types.Info, lit *ast.CompositeLit, flow func(ast.Expr, types.Type)) {
	t := info.TypeOf(lit)
	if t == nil {
		return
	}
	if p, ok := t.Underlying().(*types.Pointer); ok { // elided &T{} in a literal
		t = p.Elem()
	}
	for i, elt := range lit.Elts {
		key, val := ast.Expr(nil), elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, val = kv.Key, kv.Value
		}
		switch u := t.Underlying().(type) {
		case *types.Struct:
			if id, ok := key.(*ast.Ident); ok {
				flow(val, info.TypeOf(id))
			} else if key == nil && i < u.NumFields() {
				flow(val, u.Field(i).Type())
			}
		case *types.Slice:
			flow(val, u.Elem())
		case *types.Array:
			flow(val, u.Elem())
		case *types.Map:
			if key != nil {
				flow(key, u.Key())
			}
			flow(val, u.Elem())
		}
	}
}

// viaInterface reports whether method m of t is reachable through an
// interface: values of t enter some interface, from which a type
// assertion can reach any recorded interface that t's pointer method
// set implements; one of those has m.
func (r *moduleRefs) viaInterface(t *types.Named, m *types.Func) bool {
	// error and fmt.Stringer count without a traced conversion: values
	// reach them through any, in fmt and errors.
	if (m.Name() == "Error" || m.Name() == "String") && sigString(m) == "()(string,)" {
		return true
	}
	if !r.boxed[objKey(t.Obj())] {
		return false
	}
	ms := types.NewMethodSet(types.NewPointer(t))
	have := map[string]string{}
	for i := 0; i < ms.Len(); i++ {
		f := ms.At(i).Obj().(*types.Func)
		have[f.Name()] = sigString(f)
	}
	for _, iface := range r.ifaces[m.Name()] {
		all := true
		for n, sig := range iface {
			all = all && have[n] == sig
		}
		if all {
			return true
		}
	}
	return false
}

func isInternal(path string) bool {
	return strings.HasPrefix(path, "internal/") || strings.Contains(path, "/internal/")
}

func runDeadExport(pass *Pass) {
	if !isInternal(pass.Pkg.Path()) {
		return
	}
	refs := pass.refs
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() && !refs.used[objKey(obj)] {
			pass.Reportf(obj.Pos(), "exported %s has no non-test reference; delete or unexport it", name)
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		// An interface's methods are its contract, checked through the
		// implementations; only concrete methods are candidates.
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if m.Exported() && !refs.used[objKey(m)] && !refs.viaInterface(named, m) {
				pass.Reportf(m.Pos(), "exported %s.%s has no non-test reference; delete or unexport it", name, m.Name())
			}
		}
	}
}
