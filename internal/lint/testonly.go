package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Testonly flags an exported declaration in an internal package that no
// non-test code in the module reaches: product code is what the system
// runs, so a checker or reference implementation only tests call belongs in
// a _test.go file beside them. Reach is read over the whole module (see
// reachedFrom), never one package, so linting a subset flags nothing that
// linting ./... would not.
//
// A declaration that must stay exported for another package's tests is
// waived with `//lint:testonly <reason>` on its line or the line above; the
// reason names the test that needs it, and an empty one is itself a finding.
var Testonly = &Analyzer{
	Name: "testonly",
	Doc: "reject exported declarations in internal/ packages that only tests " +
		"reach; move them into a _test.go file or waive them with //lint:testonly <reason>",
	Run: runTestonly,
}

// testonlyScope is the import path prefix of the packages whose exports
// must earn their place. The root package's exports are the library API
// for importers outside the module; main packages export nothing.
const testonlyScope = "allpairs/internal/"

// implicitMethods are called by the standard library through interfaces
// the module never names (fmt.Stringer, error, sort.Interface,
// heap.Interface).
var implicitMethods = map[string]bool{
	"String": true, "Error": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

func runTestonly(pass *Pass) error {
	if !inTestonlyScope(pass.Pkg) {
		return nil
	}
	for _, f := range pass.Files {
		forEachDecl(pass.TypesInfo, f, func(obj types.Object, node ast.Node) {
			if !obj.Exported() {
				return
			}
			if d, ok := pass.directiveFor(f, node, "testonly"); ok {
				if d.reason == "" {
					pass.Reportf(node.Pos(), "//lint:testonly requires a reason naming the test that needs %s", obj.Name())
				}
				return
			}
			if !pass.Reached(obj) {
				pass.Reportf(node.Pos(), "%s is reached only from tests: move it into a _test.go file, or waive it with //lint:testonly <reason>", declName(obj))
			}
		})
	}
	return nil
}

func inTestonlyScope(pkg *types.Package) bool {
	return strings.HasPrefix(pkg.Path(), testonlyScope) && pkg.Name() != "main"
}

// forEachDecl calls fn with the object and node of every top-level
// function, method, type, variable and constant declared in f.
func forEachDecl(info *types.Info, f *ast.File, fn func(types.Object, ast.Node)) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			fn(info.Defs[d.Name], d)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					fn(info.Defs[s.Name], s)
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if obj := info.Defs[name]; obj != nil {
							fn(obj, s)
						}
					}
				}
			}
		}
	}
}

// declKey names a top-level declaration the same way whether obj comes
// from source or from another package's export data: pkg.Name, or
// pkg.Recv.Name for a method. Fields, locals and interface methods get "".
func declKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok || types.IsInterface(named) {
				return ""
			}
			return obj.Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name()
		}
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// declName is declKey without the package path, for messages.
func declName(obj types.Object) string {
	return strings.TrimPrefix(declKey(obj), obj.Pkg().Path()+".")
}

func isMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Type().(*types.Signature).Recv() != nil
}

// interfaceMethods returns the keys of the methods by which a type declared
// in the module satisfies an interface the module mentions, promoted
// methods included. Types from two packages' checks are distinct objects,
// so methods are matched by name and printed signature, not types.Implements.
func interfaceMethods(module []*Package) map[string]bool {
	qual := func(p *types.Package) string { return p.Path() }
	// sig prints a method's name and parameter and result types, leaving
	// out parameter names, which an implementation need not share.
	sig := func(fn *types.Func) string {
		var b strings.Builder
		b.WriteString(fn.Name())
		s := fn.Type().(*types.Signature)
		for _, tuple := range []*types.Tuple{s.Params(), s.Results()} {
			b.WriteByte('(')
			for i := 0; i < tuple.Len(); i++ {
				b.WriteString(types.TypeString(tuple.At(i).Type(), qual) + ",")
			}
			b.WriteByte(')')
		}
		return b.String()
	}
	var ifaces []*types.Interface
	seen := map[string]bool{}
	for _, pkg := range module {
		for _, tv := range pkg.TypesInfo.Types {
			iface, ok := tv.Type.Underlying().(*types.Interface)
			if !ok || iface.NumMethods() == 0 || seen[types.TypeString(iface, qual)] {
				continue
			}
			seen[types.TypeString(iface, qual)] = true
			ifaces = append(ifaces, iface)
		}
	}
	used := map[string]bool{}
	for _, pkg := range module {
		for _, obj := range pkg.TypesInfo.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			methods := map[string]*types.Func{}
			mset := types.NewMethodSet(types.NewPointer(tn.Type()))
			for i := 0; i < mset.Len(); i++ {
				fn := mset.At(i).Obj().(*types.Func)
				methods[sig(fn)] = fn
			}
		implements:
			for _, iface := range ifaces {
				for i := 0; i < iface.NumMethods(); i++ {
					if m := iface.Method(i); methods[sig(m)] == nil {
						continue implements
					}
				}
				for i := 0; i < iface.NumMethods(); i++ {
					m := iface.Method(i)
					used[declKey(methods[sig(m)])] = true
				}
			}
		}
	}
	return used
}

// reachedFrom computes, once over every package of the module, which
// declarations non-test code reaches, and returns the membership test a
// Pass carries. A declaration is reached when a reached declaration refers
// to it. Everything outside testonly's candidates is reached by fiat: code
// in other packages, main packages, unexported and waived declarations, and
// methods something may call through an interface — String and friends,
// and methods by which a type satisfies an interface the module mentions.
// A test-only declaration's own references reach nothing, so a checker
// that only another test-only checker calls is found in the same run.
func reachedFrom(module []*Package) func(types.Object) bool {
	viaInterface := interfaceMethods(module)
	refs := map[string][]string{} // declaration -> declarations it refers to
	reached := map[string]bool{}
	var work []string
	for _, pkg := range module {
		directives := &Pass{Fset: pkg.Fset}
		for _, f := range pkg.Files {
			forEachDecl(pkg.TypesInfo, f, func(obj types.Object, node ast.Node) {
				key := declKey(obj)
				// A method's receiver does not reach its type: a caller
				// holds a value, and got it from code that names the type.
				var recv ast.Node
				if fd, ok := node.(*ast.FuncDecl); ok && fd.Recv != nil {
					recv = fd.Recv
				}
				ast.Inspect(node, func(n ast.Node) bool {
					if n == recv {
						return false
					}
					if id, ok := n.(*ast.Ident); ok {
						if used := declKey(pkg.TypesInfo.Uses[id]); used != "" {
							refs[key] = append(refs[key], used)
						}
					}
					return true
				})
				_, waived := directives.directiveFor(f, node, "testonly")
				candidate := obj.Exported() && inTestonlyScope(pkg.Pkg) && !waived &&
					!(implicitMethods[obj.Name()] && isMethod(obj)) && !viaInterface[key]
				if !candidate && !reached[key] {
					reached[key] = true
					work = append(work, key)
				}
			})
		}
	}
	for len(work) > 0 {
		key := work[len(work)-1]
		work = work[:len(work)-1]
		for _, used := range refs[key] {
			if !reached[used] {
				reached[used] = true
				work = append(work, used)
			}
		}
	}
	return func(obj types.Object) bool { return reached[declKey(obj)] }
}
