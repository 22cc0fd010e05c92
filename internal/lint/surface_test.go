package lint_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
	"testing"

	"zipline/internal/lint"
)

// allowedSurface lists exported names no non-test file references and
// that stay anyway, each with the reason.
var allowedSurface = map[string]string{
	"internal/bitvec.FromUint":          "tool: bch, gd, hamming and bitvec tests build vectors with it",
	"internal/bitvec.MustParse":         "tool: crc, gd, hamming and bitvec tests write vectors as literals with it",
	"internal/bitvec.Vector.Equal":      "tool: every vector comparison in the codec tests",
	"internal/bitvec.Vector.Key":        "tool: bch, gd and hamming tests count distinct vectors with it; goes with ROADMAP item 7 after 2(iii)",
	"internal/crc.Engine.Matrix":        "oracle of TestMatrixFormMatches: the parity-matrix form of the CRC",
	"internal/crc.RemainderByMatrix":    "oracle of TestMatrixFormMatches: the parity-matrix form of the CRC",
	"internal/crc.MustNew":              "tool: the crc tests' fixture constructor",
	"internal/gf2m.MustNew":             "tool: the gf2m tests' fixture constructor",
	"internal/hamming.MustByM":          "tool: the hamming and bch tests' fixture constructor",
	"internal/hamming.Code.Encode":      "oracle: the vector-form code the byte paths are checked against",
	"internal/hamming.Code.Decode":      "oracle: the vector-form code the byte paths are checked against",
	"internal/gd.Dictionary.LookupID":   "oracle read of TestDictionaryModel: dumps every id after every step",
	"internal/packet.Format.ParseType2": "oracle of the format round-trip tests and FuzzParseFormat",
	"internal/tofino.Table.Get":         "tool: controlplane tests read table state without refreshing idle timers",
	"internal/lint/linttest.Run":        "the analyzers' test harness: only _test files can call it",
	"ziphttp.WithConfig":                "documented public option",
	"ziphttp.WithContentTypes":          "documented public option",
	"ziphttp.WithMinSize":               "documented public option",
}

// allowedKnobs lists exported Config/Options fields no non-test code
// sets and that stay anyway, each with the reason.
var allowedKnobs = map[string]string{
	"internal/experiments.Figure3Config.IDBits": "TestFigure3StaticNAWhenOverflowing sets 2 to reach the static-table n/a case",
	"internal/zswitch.Config.Packed":            "the differential matrix, the alloc pins and FuzzParseFormat turn it on; ablation A1 prints its sizes",
}

// audited reports whether the surface rules apply to a package: the
// root package, ziphttp and everything under internal/. bench/, cmd/
// and examples/ only count as callers.
func audited(path string) bool {
	return path == "zipline" || path == "zipline/ziphttp" || strings.HasPrefix(path, "zipline/internal/")
}

// declPos identifies a declaration. lint.Load type-checks packages one
// at a time against export data, so one declaration is a different
// types.Object in every importer; its file, line and name are the same
// in all (export data keeps the line but not the name's column).
type declPos struct {
	file string
	line int
	name string
}

// module is the tree as its non-test files see it.
type module struct {
	pkgs []*lint.Package
	fset *token.FileSet
	// exported maps an import path to the package as importers see it,
	// the one view in which types of different packages compare.
	exported map[string]*types.Package
}

// loadPackages type-checks the module once for both audits.
var loadPackages = sync.OnceValues(func() ([]*lint.Package, error) {
	return lint.Load("../..", "./...")
})

func loadModule(t *testing.T) *module {
	t.Helper()
	pkgs, err := loadPackages()
	if err != nil {
		t.Fatal(err)
	}
	m := &module{pkgs: pkgs, fset: pkgs[0].Fset, exported: make(map[string]*types.Package)}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if m.exported[p.Path()] == nil {
			m.exported[p.Path()] = p
			for _, imp := range p.Imports() {
				walk(imp)
			}
		}
	}
	for _, p := range pkgs {
		for _, imp := range p.Pkg.Imports() {
			walk(imp)
		}
	}
	return m
}

func (m *module) pos(obj types.Object) declPos {
	p := m.fset.Position(obj.Pos())
	return declPos{p.Filename, p.Line, obj.Name()}
}

// origin strips generic instantiation, so a use of T[int].M counts as
// a use of T.M.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// TestNoSurfaceOnlyTestsReach fails on an exported function, method,
// type, constant or variable of an audited package that no non-test
// file of the module references. A method is exempt when it makes its
// receiver implement an interface that non-test code names (the call
// then goes through the interface and leaves no use of the method
// itself) or when it is declared on one line: an accessor has nothing
// in it to delete.
func TestNoSurfaceOnlyTestsReach(t *testing.T) {
	m := loadModule(t)

	used := make(map[declPos]bool)
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	oneLine := make(map[declPos]bool)
	for _, p := range m.pkgs {
		// A receiver names its type without being a caller of it.
		recv := make(map[*ast.Ident]bool)
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil {
					continue
				}
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						recv[id] = true
					}
					return true
				})
				if m.fset.Position(fd.Pos()).Line == m.fset.Position(fd.End()).Line {
					oneLine[m.pos(p.Info.Defs[fd.Name])] = true
				}
			}
		}
		for id, obj := range p.Info.Uses {
			if obj.Pkg() != nil && audited(obj.Pkg().Path()) && !recv[id] {
				used[m.pos(origin(obj))] = true
			}
		}
		// Every interface the code names or declares, in the importers'
		// view where there is one, plus interface literals as written.
		for _, objs := range []map[*ast.Ident]types.Object{p.Info.Uses, p.Info.Defs} {
			for _, obj := range objs {
				tn, ok := obj.(*types.TypeName)
				if !ok || tn.Pkg() == nil {
					continue
				}
				if exp := m.exported[tn.Pkg().Path()]; exp != nil && exp.Scope().Lookup(tn.Name()) != nil {
					tn = exp.Scope().Lookup(tn.Name()).(*types.TypeName)
				}
				addIface(tn.Type())
			}
		}
		for expr, tv := range p.Info.Types {
			if _, ok := expr.(*ast.InterfaceType); ok {
				addIface(tv.Type)
			}
		}
	}
	// fmt and encoding/json find these by reflection.
	for _, name := range []string{"fmt.Stringer", "encoding/json.Marshaler", "encoding/json.Unmarshaler"} {
		i := strings.LastIndex(name, ".")
		if pkg := m.exported[name[:i]]; pkg != nil {
			addIface(pkg.Scope().Lookup(name[i+1:]).Type())
		}
	}
	satisfies := func(named *types.Named, method string) bool {
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == method &&
					(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
					return true
				}
			}
		}
		return false
	}

	var dead []string
	allowed := make(map[string]bool) // allowlist entries that were needed
	report := func(name string, obj types.Object) {
		if !obj.Exported() || used[m.pos(obj)] {
			return
		}
		if _, ok := allowedSurface[name]; ok {
			allowed[name] = true
			return
		}
		dead = append(dead, name)
	}
	for _, p := range m.pkgs {
		if !audited(p.Pkg.Path()) {
			continue
		}
		// Methods are checked in the importers' view, so signatures
		// that mention other packages' types compare with interfaces
		// declared elsewhere.
		pkg := p.Pkg
		if exp := m.exported[pkg.Path()]; exp != nil {
			pkg = exp
		}
		short := strings.TrimPrefix(pkg.Path(), "zipline/")
		for _, name := range p.Pkg.Scope().Names() {
			switch obj := p.Pkg.Scope().Lookup(name).(type) {
			case *types.Func, *types.Const, *types.Var:
				report(short+"."+name, obj)
			case *types.TypeName:
				report(short+"."+name, obj)
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				if exp, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
					named = exp.Type().(*types.Named)
				}
				for i := 0; i < named.NumMethods(); i++ {
					if fn := named.Method(i); fn.Exported() && !oneLine[m.pos(fn)] && !satisfies(named, fn.Name()) {
						report(short+"."+name+"."+fn.Name(), fn)
					}
				}
			}
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("%s: no non-test file references it; delete it with the tests about it, or allowlist it with the reason it stays", name)
	}
	for name := range allowedSurface {
		if !allowed[name] {
			t.Errorf("%s: allowlisted but referenced (or gone); drop the entry", name)
		}
	}
}

// TestNoKnobNobodyTurns fails on an exported field of a struct named
// …Config or Options that no non-test code sets: with one value ever
// in use the field is a constant. A keyed or positional composite
// literal, an assignment, ++/-- and taking the field's address (flag
// registration) all set it; the struct's own withDefaults does not.
func TestNoKnobNobodyTurns(t *testing.T) {
	m := loadModule(t)

	set := make(map[declPos]bool)
	for _, p := range m.pkgs {
		field := func(e ast.Expr) {
			if sel, ok := e.(*ast.SelectorExpr); ok {
				if v, ok := p.Info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
					set[m.pos(v.Origin())] = true
				}
			}
		}
		visit := func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				return n.Name.Name != "withDefaults"
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					field(lhs)
				}
			case *ast.IncDecStmt:
				field(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					field(n.X)
				}
			case *ast.CallExpr:
				// A struct handed to encoding/json is input: the
				// decoder sets whatever the document names.
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					break
				}
				if fn := p.Info.Uses[sel.Sel]; fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/json" {
					break
				}
				for _, arg := range n.Args {
					ptr, ok := p.Info.TypeOf(arg).(*types.Pointer)
					if !ok {
						continue
					}
					if st, ok := ptr.Elem().Underlying().(*types.Struct); ok {
						for i := 0; i < st.NumFields(); i++ {
							set[m.pos(st.Field(i).Origin())] = true
						}
					}
				}
			case *ast.CompositeLit:
				st, ok := p.Info.TypeOf(n).Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						set[m.pos(p.Info.Uses[kv.Key.(*ast.Ident)])] = true
					} else {
						set[m.pos(st.Field(i).Origin())] = true
					}
				}
			}
			return true
		}
		for _, f := range p.Files {
			ast.Inspect(f, visit)
		}
	}

	var idle []string
	allowed := make(map[string]bool) // allowlist entries that were needed
	for _, p := range m.pkgs {
		if !audited(p.Pkg.Path()) {
			continue
		}
		short := strings.TrimPrefix(p.Pkg.Path(), "zipline/")
		for _, name := range p.Pkg.Scope().Names() {
			tn, ok := p.Pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !(strings.HasSuffix(name, "Config") || name == "Options") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				knob := short + "." + name + "." + f.Name()
				if !f.Exported() || set[m.pos(f)] {
					continue
				}
				if _, ok := allowedKnobs[knob]; ok {
					allowed[knob] = true
					continue
				}
				idle = append(idle, knob)
			}
		}
	}
	sort.Strings(idle)
	for _, knob := range idle {
		t.Errorf("%s: no non-test code sets it; make it an unexported constant, or allowlist it with the reason it stays", knob)
	}
	for knob := range allowedKnobs {
		if !allowed[knob] {
			t.Errorf("%s: allowlisted but set by non-test code (or gone); drop the entry", knob)
		}
	}
}

// simulator lists the packages of the switch deployment and its
// testbed. The codec stands alone: its importers (ziphttp, the CLIs,
// the proxy) must not type-check a simulator they never run.
var simulator = []string{"netsim", "controlplane", "tofino", "zswitch", "packet", "stats"}

// TestRootLinksNoSimulator fails if the root package reaches any
// simulator package through its transitive imports.
func TestRootLinksNoSimulator(t *testing.T) {
	pkgs, err := loadPackages()
	if err != nil {
		t.Fatal(err)
	}
	// Module packages are checked from source, so their Imports are
	// exactly what their files import; export data may list fewer.
	bySource := make(map[string]*types.Package)
	for _, p := range pkgs {
		bySource[p.Pkg.Path()] = p.Pkg
	}
	via := map[string]string{"zipline": ""} // import path -> its importer
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		for _, imp := range p.Imports() {
			if _, seen := via[imp.Path()]; seen {
				continue
			}
			via[imp.Path()] = p.Path()
			if src := bySource[imp.Path()]; src != nil {
				walk(src)
			}
		}
	}
	walk(bySource["zipline"])
	for _, name := range simulator {
		path := "zipline/internal/" + name
		if _, ok := via[path]; !ok {
			continue
		}
		chain := path
		for p := via[path]; p != ""; p = via[p] {
			chain = p + " -> " + chain
		}
		t.Errorf("the root package imports %s (%s)", path, chain)
	}
}
