package leaseos_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// testFacing are exported functions and methods that only tests call, each
// kept on purpose.
var testFacing = map[string]string{
	"IsHeld":              "powermgr, holdsvc: tests read whether a lock is held",
	"Registered":          "sensor, location: tests check that a request is registered",
	"LiveCount":           "binder: tests count an owner's live kernel objects",
	"ScreenOn":            "powermgr: tests read the screen state",
	"Recreate":            "appfw: tests drive an activity's config-change path",
	"DrawCount":           "power: tests count a meter's resident draws",
	"Pending":             "runtime: tests count the wall clock's queued events",
	"Sever":               "netchaos: tests cut a link outright",
	"NewFabric":           "netchaos: test infrastructure for cluster tests",
	"Names":               "faults: tests list the armed fault sites",
	"SetProb":             "faults: tests change a site's probability mid-run",
	"Enabled":             "faults: tests check that a site is armed",
	"CaptureState":        "lease: tests compare a manager's state across a snapshot round trip",
	"Spearman":            "stats: rank correlation for comparing a series' shape with the paper's",
	"Int63":               "stats: satisfies rand.Source",
	"Renew":               "lease: the paper's Table 3 API",
	"RegisterProxy":       "lease: the paper's Table 3 API",
	"UnregisterProxy":     "lease: the paper's Table 3 API",
	"SetReferenceCounted": "powermgr: Android's wakelock API, kept for the no-sleep bug family",
	"AcquireTimeout":      "powermgr: Android's wakelock API, kept for the no-sleep bug family",
}

// exemptDirs hold exported API that callers outside the repository use: the
// library facade and the simulation test kit.
var exemptDirs = map[string]bool{".": true, "internal/sim/simtest": true}

// TestExportedFuncsHaveCallers fails when an exported function or method is
// named by no non-test file of either module (cmd/, examples/ and
// benchmark/ included). Code that only its own tests reach goes, or is
// listed in testFacing with the reason it stays. Names match by identifier,
// so a method counts as called when any call, selector or interface names
// it.
func TestExportedFuncsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ pos, name string }
	var decls []decl
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		names := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				names[fn.Name] = true
				if fn.Name.IsExported() && !exemptDirs[filepath.Dir(path)] {
					decls = append(decls, decl{fset.Position(fn.Pos()).String(), fn.Name.Name})
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !names[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range decls {
		if !used[d.name] && testFacing[d.name] == "" {
			t.Errorf("%s: %s has no caller outside tests: delete it, or list it in testFacing with a reason", d.pos, d.name)
		}
	}
	for name := range testFacing {
		if used[name] {
			t.Errorf("testFacing lists %s, which a non-test file now calls: drop it from the list", name)
		}
	}
}
