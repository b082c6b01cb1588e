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
// testFacing with the reason it stays.
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
}

// program is both modules' non-test code, type-checked, reduced to what the
// reachability walk needs.
type program struct {
	fset  *token.FileSet
	name  map[*types.Func]string        // every repository function and interface method, by qualified name
	uses  map[*types.Func][]*types.Func // the functions and methods a function's body names
	roots []*types.Func                 // the walk's roots, and what package-level declarations name
	named []types.Type                  // declared named types and their instances, and pointers to them
}

func loadProgram(t *testing.T) *program {
	t.Helper()
	p := &program{fset: token.NewFileSet(), name: map[*types.Func]string{}, uses: map[*types.Func][]*types.Func{}}
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
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Instances: map[*ast.Ident]types.Instance{},
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
