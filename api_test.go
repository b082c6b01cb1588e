package leaseos_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testFacing are functions and methods, keyed by qualified name, that no
// non-test code reaches, each kept on purpose. A listed entry is a root of
// the reachability walk, so what it calls needs no entry of its own.
var testFacing = map[string]string{
	"powermgr.Wakelock.IsHeld":              "tests read whether a wakelock is held",
	"holdsvc.Lock.IsHeld":                   "tests read whether a lock is held",
	"sensor.Registration.Registered":        "tests check that a sensor listener is registered",
	"sensor.Registration.Reregister":        "TestProxyConformance re-holds a sensor listener, as the apps re-hold a location request",
	"location.Request.Registered":           "tests check that a location request is registered",
	"binder.Registry.LiveCount":             "tests count an owner's live kernel objects",
	"powermgr.Service.ScreenOn":             "tests read the screen state",
	"appfw.Activity.Recreate":               "tests drive an activity's config-change path",
	"appfw.Process.Kill":                    "Android's process death; FuzzGatingMatchesFullWalk and the lease integration property drive it",
	"power.Meter.DrawCount":                 "tests count a meter's resident draws",
	"runtime.Wall.Pending":                  "tests count the wall clock's queued events",
	"simclock.Engine.Run":                   "tests in simclock, netchaos and leased drain a finite event queue",
	"netchaos.NewFabric":                    "the in-memory network that cluster tests run over",
	"netchaos.Fabric.Listen":                "the in-memory network that cluster tests run over",
	"netchaos.Fabric.Configure":             "the in-memory network that cluster tests run over",
	"netchaos.Fabric.Node":                  "the in-memory network that cluster tests run over",
	"netchaos.Proxy.Sever":                  "tests cut a link outright",
	"faults.Injector.Names":                 "tests list the armed fault sites",
	"faults.Site.SetProb":                   "tests change a site's probability mid-run",
	"faults.Site.Enabled":                   "tests check that a site is armed",
	"lease.Manager.CaptureState":            "tests compare a manager's state across a snapshot round trip",
	"stats.Spearman":                        "rank correlation for comparing a series' shape with the paper's",
	"lease.Manager.Renew":                   "the paper's Table 3 API",
	"lease.Manager.Remove":                  "the paper's Table 3 API",
	"lease.Manager.RegisterProxy":           "the paper's Table 3 API",
	"lease.Manager.UnregisterProxy":         "the paper's Table 3 API",
	"powermgr.Wakelock.SetReferenceCounted": "Android's wakelock API, kept for the no-sleep bug family",
	"powermgr.Wakelock.AcquireTimeout":      "Android's wakelock API, kept for the no-sleep bug family",
	"benchmark.stubController.ServiceName":  "benchmark/ is frozen, and its stub keeps a method hooks.Controller no longer declares",
}

// TestExportedFuncsHaveCallers type-checks every non-test file of both
// modules (cmd/, examples/ and benchmark/ included) and fails on a function
// or method, exported or not, that no running code reaches. Reachability
// is a fixed point from main, init, package-level variable initialisers,
// the library facade's own functions, the simulation test kit and
// testFacing. A reached body reaches every function, method or interface
// method it names, resolved to its object rather than matched by spelling;
// a called interface method reaches each implementation of it, promoted
// methods included; a method that implements a standard-library interface
// is reached. Code that only its own tests reach goes, or is listed in
// testFacing with the reason it stays. The same program's unexported struct
// fields are held to being read (readFields says what reads one): a field
// that non-test code only writes goes, or is listed in unreadFields.
// Exported fields are not checked, since any importer or encoding/json may
// read them.
func TestExportedFuncsHaveCallers(t *testing.T) {
	prog := loadProgram(t)
	byName := map[string]*types.Func{}
	for f, name := range prog.name {
		byName[name] = f
	}
	bare := prog.walk(nil)
	var listed []*types.Func
	for name := range testFacing {
		switch f := byName[name]; {
		case f == nil:
			t.Errorf("testFacing lists %s, which is not a function or method of this repository", name)
		case bare[f]:
			t.Errorf("testFacing lists %s, which non-test code now reaches: drop it from the list", name)
		default:
			listed = append(listed, f)
		}
	}
	for _, f := range prog.unreached(prog.walk(listed)) {
		t.Errorf("%s: %s has no caller outside tests: delete it, or list it in testFacing with a reason",
			prog.fset.Position(f.Pos()), prog.name[f])
	}
	for name := range unreadFields {
		switch v := prog.fieldNamed(name); {
		case v == nil:
			t.Errorf("unreadFields lists %s, which is not an unexported field of this repository", name)
		case prog.read[v]:
			t.Errorf("unreadFields lists %s, which non-test code now reads: drop it from the list", name)
		}
	}
	for _, v := range prog.writtenOnly() {
		if _, ok := unreadFields[prog.fields[v]]; !ok {
			t.Errorf("%s: field %s is written but never read outside tests: delete it, or list it in unreadFields with a reason",
				prog.fset.Position(v.Pos()), prog.fields[v])
		}
	}
}

// unreadFields are unexported struct fields, keyed by qualified name, that
// non-test code writes and never reads, each kept on purpose.
var unreadFields = map[string]string{
	"exp.appMix.name":             "TestBitIdentityFingerprint writes each fleet device's mix name into its golden",
	"benchmark.metricSpec.better": "benchmark/ is frozen; each spec keeps the direction BENCHMARK.json states beside it",
	"benchmark.simYard.sink":      "benchmark/ is frozen; the yardstick's loop adds into it so its floating-point work stays live",
}

// program is both modules' non-test code, type-checked, reduced to what the
// reachability walk and the field reads need.
type program struct {
	fset  *token.FileSet
	name  map[*types.Func]string        // every repository function and interface method, by qualified name
	uses  map[*types.Func][]*types.Func // the functions and methods a function's body names
	roots []*types.Func                 // the walk's roots, and what package-level declarations name
	named []types.Type                  // declared named types and their instances, and pointers to them

	fields map[*types.Var]string // every unexported, non-embedded struct field, by qualified name
	read   map[*types.Var]bool   // the fields some non-test code reads
}

func loadProgram(t *testing.T) *program {
	t.Helper()
	p := &program{fset: token.NewFileSet(), name: map[*types.Func]string{}, uses: map[*types.Func][]*types.Func{},
		fields: map[*types.Var]string{}, read: map[*types.Var]bool{}}
	files := map[string][]*ast.File{} // by import path
	dirs := map[string]string{}
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if file != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(p.fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		pkg := path.Join("repro", dir)
		files[pkg] = append(files[pkg], f)
		dirs[pkg] = dir
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	std := importer.Default()
	checked := map[string]*types.Package{}
	imp := importerFunc(func(pkg string) (*types.Package, error) {
		if files[pkg] == nil {
			return std.Import(pkg)
		}
		return checked[pkg], nil
	})
	var check func(pkg string)
	check = func(pkg string) {
		if _, ok := checked[pkg]; ok {
			return
		}
		checked[pkg] = nil
		for _, f := range files[pkg] {
			for _, spec := range f.Imports {
				if dep := strings.Trim(spec.Path.Value, `"`); files[dep] != nil {
					check(dep)
				}
			}
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(pkg, p.fset, files[pkg], info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", pkg, err)
		}
		checked[pkg] = tp
	}
	for pkg := range files {
		check(pkg)
	}

	qualifier := func(pkg *types.Package) string {
		if pkg.Name() == "main" {
			return dirs[pkg.Path()]
		}
		return pkg.Name()
	}
	for pkg, fs := range files {
		dir := dirs[pkg]
		for _, f := range fs {
			p.declareFields(f, info, qualifier(checked[pkg]))
			p.readFields(f, info)
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					// Package-level variables are initialised at start-up.
					p.roots = append(p.roots, usesIn(d, info)...)
					declareInterfaces(d, info, p.name, qualifier)
					continue
				}
				fn := info.Defs[fd.Name].(*types.Func)
				p.name[fn] = qualifiedName(fn, qualifier)
				p.uses[fn] = usesIn(fd, info)
				if dir == "." || dir == "internal/sim/simtest" || fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main" && checked[pkg].Name() == "main") {
					p.roots = append(p.roots, fn)
				}
			}
		}
	}
	// A generic type implements interfaces only once instantiated.
	for _, obj := range info.Defs {
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() && tn.Parent() == tn.Pkg().Scope() {
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams() == nil {
				p.named = append(p.named, named, types.NewPointer(named))
			}
		}
	}
	for _, inst := range info.Instances {
		if named, ok := inst.Type.(*types.Named); ok && files[named.Obj().Pkg().Path()] != nil {
			p.named = append(p.named, named, types.NewPointer(named))
		}
	}
	p.roots = append(p.roots, p.stdlibImplementations(checked)...)
	return p
}

// declareFields names each unexported field that a struct type in f declares:
// pkg.Type.field, or pkg.struct{}.field for a struct literal type outside a
// type declaration. Embedded fields are reached through their promoted
// fields and methods, so they are not checked.
func (p *program) declareFields(f *ast.File, info *types.Info, pkg string) {
	var outer []string // the enclosing type declarations' names
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case nil:
			outer = outer[:len(outer)-1]
			return true
		case *ast.TypeSpec:
			outer = append(outer, n.Name.Name)
		case *ast.StructType:
			owner := "struct{}"
			for i := len(outer) - 1; i >= 0; i-- {
				if outer[i] != "" {
					owner = outer[i]
					break
				}
			}
			for _, field := range n.Fields.List {
				for _, id := range field.Names {
					if !id.IsExported() && id.Name != "_" {
						p.fields[info.Defs[id].(*types.Var)] = pkg + "." + owner + "." + id.Name
					}
				}
			}
			outer = append(outer, "")
		default:
			outer = append(outer, "")
		}
		return true
	})
}

// readFields marks what f reads of struct fields. A selector reads its field
// unless it is the whole left side of an assignment (= and op= alike) or of
// ++/--; a composite literal's keys only write. Every field of a struct type
// is read where its values are compared (==, !=, a map's key type), since
// the comparison reads them all, and where a value of a type that holds the
// struct reaches the fmt, log or encoding/json functions, which print
// unexported fields under %v. Fields of generic types are resolved to the
// declaration.
func (p *program) readFields(f *ast.File, info *types.Info) {
	written := map[*ast.SelectorExpr]bool{}
	lhs := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			written[sel] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				lhs(e)
			}
		case *ast.IncDecStmt:
			lhs(n.X)
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if sel := info.Selections[n]; sel != nil && sel.Kind() == types.FieldVal && !written[n] {
				p.read[sel.Obj().(*types.Var).Origin()] = true
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				p.readHeld(info.TypeOf(n.X), map[types.Type]bool{})
			}
		case *ast.MapType:
			p.readHeld(info.TypeOf(n.Key), map[types.Type]bool{})
		case *ast.CallExpr:
			var callee *types.Func
			switch fn := ast.Unparen(n.Fun).(type) {
			case *ast.SelectorExpr:
				callee, _ = info.Uses[fn.Sel].(*types.Func)
			case *ast.Ident:
				callee, _ = info.Uses[fn].(*types.Func)
			}
			if callee == nil || callee.Pkg() == nil {
				break
			}
			switch callee.Pkg().Path() {
			case "fmt", "log", "encoding/json":
				for _, arg := range n.Args {
					p.readAll(info.TypeOf(arg), map[types.Type]bool{})
				}
			}
		}
		return true
	})
}

// readAll is readHeld through t itself if t is a pointer, as fmt prints a
// pointer argument's struct; a pointer it meets inside a value it prints as
// an address.
func (p *program) readAll(t types.Type, seen map[types.Type]bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	p.readHeld(t, seen)
}

// readHeld marks every field of every struct type that a value of t holds in
// place, or through arrays, slices and maps, as read: what comparing or
// printing the value reads. It does not follow pointers.
func (p *program) readHeld(t types.Type, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Array:
		p.readHeld(u.Elem(), seen)
	case *types.Slice:
		p.readHeld(u.Elem(), seen)
	case *types.Map:
		p.readHeld(u.Key(), seen)
		p.readHeld(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			p.read[u.Field(i).Origin()] = true
			p.readHeld(u.Field(i).Type(), seen)
		}
	}
}

// writtenOnly lists, in source order, the checked fields nothing reads.
func (p *program) writtenOnly() []*types.Var {
	var out []*types.Var
	for v := range p.fields {
		if !p.read[v] {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// fieldNamed is the checked field with this qualified name, or nil.
func (p *program) fieldNamed(name string) *types.Var {
	for v, n := range p.fields {
		if n == name {
			return v
		}
	}
	return nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// usesIn lists the functions and methods that n names.
func usesIn(n ast.Node, info *types.Info) []*types.Func {
	var out []*types.Func
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				out = append(out, fn.Origin())
			}
		}
		return true
	})
	return out
}

// declareInterfaces names each method that an interface type declared in d
// declares itself.
func declareInterfaces(d ast.Decl, info *types.Info, name map[*types.Func]string, q func(*types.Package) string) {
	ast.Inspect(d, func(n ast.Node) bool {
		if it, ok := n.(*ast.InterfaceType); ok {
			for _, m := range it.Methods.List {
				for _, id := range m.Names {
					fn := info.Defs[id].(*types.Func)
					name[fn] = qualifiedName(fn, q)
				}
			}
		}
		return true
	})
}

// qualifiedName is pkg.Func, pkg.Type.Method or pkg.Interface.Method.
func qualifiedName(fn *types.Func, q func(*types.Package) string) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return q(fn.Pkg()) + "." + fn.Name()
	}
	rt := recv.Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	if named, ok := rt.(*types.Named); ok {
		return q(fn.Pkg()) + "." + named.Obj().Name() + "." + fn.Name()
	}
	// A method of an interface literal.
	return q(fn.Pkg()) + ".interface{}." + fn.Name()
}

// walk returns every repository function reached from the roots and from
// extra.
func (p *program) walk(extra []*types.Func) map[*types.Func]bool {
	reached := map[*types.Func]bool{}
	called := map[*types.Func]bool{} // interface methods whose implementations are reached
	var queue []*types.Func
	var reach func(fn *types.Func)
	reach = func(fn *types.Func) {
		if reached[fn] {
			return
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv != nil && types.IsInterface(recv.Type()) && !called[fn] {
			called[fn] = true
			for _, impl := range p.implementations(fn) {
				reach(impl)
			}
		}
		if _, ours := p.name[fn]; ours {
			reached[fn] = true
			queue = append(queue, fn)
		}
	}
	for _, fn := range append(append([]*types.Func(nil), p.roots...), extra...) {
		reach(fn)
	}
	for len(queue) > 0 {
		fn := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, use := range p.uses[fn] {
			reach(use)
		}
	}
	return reached
}

// implementations returns the method of each repository type that m, an
// interface method, dispatches to.
func (p *program) implementations(m *types.Func) []*types.Func {
	iface, _ := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	if iface == nil {
		return nil
	}
	var out []*types.Func
	for _, typ := range p.named {
		if types.IsInterface(typ) || !types.Implements(typ, iface) {
			continue
		}
		if sel := types.NewMethodSet(typ).Lookup(m.Pkg(), m.Name()); sel != nil {
			out = append(out, sel.Obj().(*types.Func).Origin())
		}
	}
	return out
}

// stdlibImplementations returns the repository methods that implement an
// exported interface of a standard-library package the repository imports,
// directly or not: String, Error, Write, ServeHTTP and the like, which the
// standard library calls.
func (p *program) stdlibImplementations(checked map[string]*types.Package) []*types.Func {
	seen := map[*types.Package]bool{}
	var ifaces []*types.Interface
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		if !strings.HasPrefix(pkg.Path(), "repro") && !strings.Contains(pkg.Path(), "internal") {
			for _, name := range pkg.Scope().Names() {
				if obj, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && obj.Exported() {
					if it, ok := obj.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
						ifaces = append(ifaces, it)
					}
				}
			}
		}
		for _, dep := range pkg.Imports() {
			visit(dep)
		}
	}
	for _, pkg := range checked {
		visit(pkg)
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	var out []*types.Func
	for _, typ := range p.named {
		if types.IsInterface(typ) {
			continue
		}
		for _, it := range ifaces {
			if !types.Implements(typ, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if sel := types.NewMethodSet(typ).Lookup(m.Pkg(), m.Name()); sel != nil {
					out = append(out, sel.Obj().(*types.Func).Origin())
				}
			}
		}
	}
	return out
}

// unreached lists, in source order, the repository functions and interface
// methods outside reached.
func (p *program) unreached(reached map[*types.Func]bool) []*types.Func {
	var out []*types.Func
	for fn := range p.name {
		if !reached[fn] {
			out = append(out, fn)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := p.fset.Position(out[i].Pos()), p.fset.Position(out[j].Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return out
}
