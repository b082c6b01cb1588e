package leaseos_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The documents that describe the system, and the limits that keep them
// readable in one sitting.
const (
	skillFile   = ".claude/skills/verify/SKILL.md"
	designBytes = 70_000
	skillLines  = 100
)

var docFiles = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", skillFile}

var (
	// codeSpan is an inline code span or the body of a fenced block.
	codeSpan = regexp.MustCompile("(?s)```[^\n]*\n(.*?)```|`([^`]+)`")
	// testName is a cited test, benchmark or fuzz target (or a -run prefix of one).
	testName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*`)
	// testDecl is a declared one.
	testDecl = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	// symbol is a cited pkg.Symbol.
	symbol = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z]\w*)`)
	// lineSuffix is a ":123" or ":123-456" after a cited file.
	lineSuffix = regexp.MustCompile(`(:\d+(-\d+)?)+$`)
)

// checkedExt are the extensions a bare file name is checked for: source and
// scripts, which a reader would open, not the files a run writes.
var checkedExt = map[string]bool{".go": true, ".sh": true, ".md": true, ".golden": true, ".yml": true}

// TestDocsCiteWhatExists holds the documents to the tree: every repository
// path they cite exists, every test, benchmark or fuzz target they name is
// declared (a name counts when some declared one starts with it, as a -run
// prefix does), every exported pkg.Symbol of a package of this module is
// declared in it, and DESIGN.md and the verify skill stay within their sizes.
func TestDocsCiteWhatExists(t *testing.T) {
	roots := map[string]bool{}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		roots[e.Name()] = true
	}
	basenames := map[string]bool{}
	var declared []string
	symbols := map[string]map[string]bool{} // package name → its top-level identifiers
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") && d.Name() != ".github" && d.Name() != ".claude" {
				return filepath.SkipDir
			}
			return nil
		}
		basenames[d.Name()] = true
		switch {
		case strings.HasSuffix(path, "_test.go"):
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range testDecl.FindAllStringSubmatch(string(src), -1) {
				declared = append(declared, m[1])
			}
		case strings.HasSuffix(path, ".go") && (filepath.Dir(path) == "." || strings.HasPrefix(path, "internal/")):
			return addSymbols(symbols, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(declared)

	for _, doc := range docFiles {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(src)
		for _, name := range testName.FindAllString(text, -1) {
			if !hasPrefixIn(declared, name) {
				t.Errorf("%s cites %s, which no test file declares", doc, name)
			}
		}
		for _, m := range codeSpan.FindAllStringSubmatch(text, -1) {
			for _, s := range symbol.FindAllStringSubmatch(m[1]+m[2], -1) {
				if decls, ok := symbols[s[1]]; ok && !decls[s[2]] {
					t.Errorf("%s cites %s, which package %s does not declare", doc, s[0], s[1])
				}
			}
			for _, word := range strings.FieldsFunc(m[1]+m[2], isPathSeparator) {
				if path, ok := citedPath(word, roots); ok && !pathExists(path, basenames) {
					t.Errorf("%s cites %s, which does not exist", doc, word)
				}
			}
		}
	}

	if fi, err := os.Stat("DESIGN.md"); err != nil {
		t.Fatal(err)
	} else if fi.Size() > designBytes {
		t.Errorf("DESIGN.md is %d bytes, over %d: describe the system once, as it is", fi.Size(), designBytes)
	}
	if src, err := os.ReadFile(skillFile); err != nil {
		t.Fatal(err)
	} else if n := strings.Count(string(src), "\n"); n > skillLines {
		t.Errorf("%s is %d lines, over %d", skillFile, n, skillLines)
	}
}

func isPathSeparator(r rune) bool {
	return strings.ContainsRune(" \t\n,;()[]'\"|=<>", r)
}

// citedPath reports whether word cites a repository path, and which. A word
// cites one when its first segment is an entry of the repository root, or
// when it names a file with a checked extension. "./" and a trailing "/..."
// or line number are dropped.
func citedPath(word string, roots map[string]bool) (string, bool) {
	if strings.ContainsAny(word, "$*{}…:") && !lineSuffix.MatchString(word) || strings.Contains(word, "://") {
		return "", false
	}
	word = lineSuffix.ReplaceAllString(word, "")
	word = strings.TrimSuffix(strings.TrimPrefix(word, "./"), "/...")
	word = strings.TrimRight(word, ".")
	if word == "" || strings.HasPrefix(word, "/") || strings.HasPrefix(word, "-") {
		return "", false
	}
	first, _, nested := strings.Cut(word, "/")
	if nested && roots[first] {
		return strings.TrimSuffix(word, "/"), true
	}
	if ext := filepath.Ext(word); checkedExt[ext] && len(word) > len(ext) {
		return word, true
	}
	return "", false
}

// pathExists resolves a cited path: the path itself, a bare file name found
// anywhere in the tree, or the pkg.Symbol form (internal/stats.Accum) whose
// package directory exists.
func pathExists(path string, basenames map[string]bool) bool {
	if _, err := os.Stat(path); err == nil {
		return true
	}
	if !strings.Contains(path, "/") {
		return basenames[path]
	}
	dir, last := filepath.Split(path)
	if pkg, _, ok := strings.Cut(last, "."); ok {
		if fi, err := os.Stat(dir + pkg); err == nil && fi.IsDir() {
			return true
		}
	}
	return false
}

// addSymbols records the top-level identifiers of one Go file, methods
// included, under its package name.
func addSymbols(symbols map[string]map[string]bool, path string) error {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	decls := symbols[f.Name.Name]
	if decls == nil {
		decls = map[string]bool{}
		symbols[f.Name.Name] = decls
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			decls[d.Name.Name] = true
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					decls[spec.Name.Name] = true
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						decls[n.Name] = true
					}
				}
			}
		}
	}
	return nil
}

// hasPrefixIn reports whether some element of the sorted list starts with p.
func hasPrefixIn(sorted []string, p string) bool {
	i := sort.SearchStrings(sorted, p)
	return i < len(sorted) && strings.HasPrefix(sorted[i], p)
}
