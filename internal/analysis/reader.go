package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// readerName is the suite's one module-wide check: every exported func,
// method, type, var and const declared in a non-test file under the
// module's internal/ must have a reader, a non-test file outside bench/
// that refers to it. It needs every package at once, so it is not an
// Analyzer: runModule runs it, and only TestTreeClean calls runModule. The
// standalone memexvet and the vettool accept its directives and never
// judge them stale.
const readerName = "reader"

// objKey names a package-level object or a method independently of the
// type-checker that produced it. Each package is checked from source while
// its imports come from export data, so one declaration is a different
// types.Object in every package that sees it; the key is what they share.
type objKey struct{ pkg, recv, name string }

func (k objKey) String() string {
	if k.recv != "" {
		return k.pkg + "." + k.recv + "." + k.name
	}
	return k.pkg + "." + k.name
}

// keyOf returns obj's key; ok is false for objects with no package
// (builtins, the universe) and for methods of interfaces.
func keyOf(obj types.Object) (k objKey, ok bool) {
	if obj == nil || obj.Pkg() == nil {
		return objKey{}, false
	}
	k = objKey{pkg: obj.Pkg().Path(), name: obj.Name()}
	if fn, isFunc := obj.(*types.Func); isFunc {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			named := namedOf(recv.Type())
			if named == nil || types.IsInterface(named) {
				return objKey{}, false
			}
			k.recv = named.Obj().Name()
		}
	}
	return k, true
}

// namedOf returns the defined type t or *t names, or nil.
func namedOf(t types.Type) *types.Named {
	named, _ := deref(t).(*types.Named)
	if named != nil {
		named = named.Origin()
	}
	return named
}

// typeKey is the key of the defined type t or *t names.
func typeKey(t types.Type) (objKey, bool) {
	if named := namedOf(t); named != nil {
		return keyOf(named.Obj())
	}
	return objKey{}, false
}

// readers is what the module's reader files refer to.
type readers struct {
	read   map[objKey]bool
	ifaces map[string][]*types.Interface // method name → used interfaces declaring it
	seen   map[types.Type]bool
}

// noteDecl records what a declaration refers to. A use inside the
// declaration of the object it names does not count — recursion, or a type
// named in its own methods, reads nothing — so self holds the keys the
// declaration declares (declSelf).
func (r *readers) noteDecl(info *types.Info, node ast.Node, self map[objKey]bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				r.noteIfaces(obj.Type())
				if k, ok := keyOf(obj); ok && !self[k] {
					r.read[k] = true
				}
			}
		}
		// A value of a type reads the type, even where nothing names it:
		// a struct returned by one call and selected from by the caller.
		if e, ok := n.(ast.Expr); ok {
			if tv, ok := info.Types[e]; ok {
				r.noteIfaces(tv.Type)
				if k, ok := typeKey(tv.Type); ok && !self[k] {
					r.read[k] = true
				}
			}
		}
		return true
	})
}

// noteIfaces records the interfaces t is or mentions in a signature or
// an element type: the interfaces a reader can hand a value to.
func (r *readers) noteIfaces(t types.Type) {
	if t == nil || r.seen[t] {
		return
	}
	r.seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		if iface, ok := t.Underlying().(*types.Interface); ok {
			r.noteIfaces(iface)
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			name := t.Method(i).Name()
			r.ifaces[name] = append(r.ifaces[name], t)
		}
	case *types.Signature:
		for _, tuple := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tuple.Len(); i++ {
				r.noteIfaces(tuple.At(i).Type())
			}
		}
	case interface{ Elem() types.Type }: // pointer, slice, array, chan, map value
		r.noteIfaces(t.Elem())
	}
}

// satisfiesUsed reports whether method is one method of an interface the
// module uses that its receiver type (or a pointer to it) implements.
// Signatures compare as strings qualified by package path, since the
// interface and the method may come from different type-checkers.
func (r *readers) satisfiesUsed(method *types.Func) bool {
	recv := namedOf(method.Type().(*types.Signature).Recv().Type())
	methods := make(map[string]string)
	mset := types.NewMethodSet(types.NewPointer(recv))
	for i := 0; i < mset.Len(); i++ {
		m := mset.At(i).Obj()
		methods[m.Name()] = sigString(m.Type())
	}
	for _, iface := range r.ifaces[method.Name()] {
		ok := true
		for i := 0; i < iface.NumMethods() && ok; i++ {
			m := iface.Method(i)
			ok = methods[m.Name()] == sigString(m.Type())
		}
		if ok {
			return true
		}
	}
	return false
}

// sigString spells a method's parameter and result types, without their
// names, which need not agree between an interface and its implementation.
func sigString(t types.Type) string {
	sig := t.(*types.Signature)
	qualify := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteString("(")
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), qualify) + ",")
		}
		b.WriteString(")")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// declNames returns the names a top-level func declaration or spec
// declares (none for an import).
func declNames(node ast.Node) []*ast.Ident {
	switch d := node.(type) {
	case *ast.FuncDecl:
		return []*ast.Ident{d.Name}
	case *ast.TypeSpec:
		return []*ast.Ident{d.Name}
	case *ast.ValueSpec:
		return d.Names
	}
	return nil
}

// declSelf returns the keys a declaration declares, and a method's
// receiver type, for noteDecl.
func declSelf(info *types.Info, node ast.Node) map[objKey]bool {
	self := make(map[objKey]bool)
	for _, id := range declNames(node) {
		if k, ok := keyOf(info.Defs[id]); ok {
			self[k] = true
		}
	}
	if d, ok := node.(*ast.FuncDecl); ok && d.Recv != nil {
		if k, ok := typeKey(info.TypeOf(d.Recv.List[0].Type)); ok {
			self[k] = true
		}
	}
	return self
}

// eachDecl calls fn with every top-level func declaration and every spec
// of the package's files.
func eachDecl(pkg *Package, fn func(node ast.Node)) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn(d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					fn(spec)
				}
			}
		}
	}
}

// checkReaders returns one reader finding for every exported name declared
// under the module's internal/ that no non-test file outside bench/ refers
// to. Two kinds of method are read without a reference: one that
// satisfies an interface the module uses (heap.Interface, http.Handler, a
// module interface a value is handed to), and String or Error.
func checkReaders(pkgs []*Package) []Diagnostic {
	r := &readers{
		read:   make(map[objKey]bool),
		ifaces: make(map[string][]*types.Interface),
		seen:   make(map[types.Type]bool),
	}
	for _, pkg := range pkgs {
		if underModule(pkg, "bench") {
			continue
		}
		eachDecl(pkg, func(node ast.Node) {
			r.noteDecl(pkg.TypesInfo, node, declSelf(pkg.TypesInfo, node))
		})
	}

	var out []Diagnostic
	for _, pkg := range pkgs {
		if !underModule(pkg, "internal") {
			continue
		}
		eachDecl(pkg, func(node ast.Node) {
			for _, id := range declNames(node) {
				obj := pkg.TypesInfo.Defs[id]
				k, ok := keyOf(obj)
				if !ok || !id.IsExported() || r.read[k] {
					continue
				}
				what := objKind(obj, k)
				if what == "method" && (k.name == "String" || k.name == "Error" || r.satisfiesUsed(obj.(*types.Func))) {
					continue
				}
				out = append(out, Diagnostic{
					Pos:      pkg.Fset.Position(id.Pos()),
					Analyzer: readerName,
					Message: fmt.Sprintf("exported %s %s has no reader: no non-test file outside bench/ refers to it; delete it, or name the reader it waits for with //memexvet:ignore reader <reason>",
						what, k),
				})
			}
		})
	}
	return out
}

// objKind names what obj is, for a finding.
func objKind(obj types.Object, k objKey) string {
	switch obj.(type) {
	case *types.Func:
		if k.recv != "" {
			return "method"
		}
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}

// underModule reports whether pkg lies in the named top-level directory of
// its module.
func underModule(pkg *Package, dir string) bool {
	prefix := pkg.Module + "/" + dir
	return pkg.Module != "" && (pkg.ImportPath == prefix || strings.HasPrefix(pkg.ImportPath, prefix+"/"))
}

// runModule is RunPackage over every package of one module, plus the
// reader check; its findings go through the same suppressions, so a
// reader directive that silences nothing is stale.
func runModule(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	byFile := make(map[string][]Diagnostic)
	for _, d := range checkReaders(pkgs) {
		byFile[d.Pos.Filename] = append(byFile[d.Pos.Filename], d)
	}
	ran := ranNames(analyzers)
	ran[readerName] = true
	var out []Diagnostic
	for _, pkg := range pkgs {
		diags, err := runAnalyzers(pkg, analyzers)
		if err != nil {
			return nil, err
		}
		for _, f := range pkg.Files {
			diags = append(diags, byFile[pkg.Fset.Position(f.Pos()).Filename]...)
		}
		out = append(out, suppress(pkg, diags, ran)...)
	}
	sortDiagnostics(out)
	return out, nil
}
