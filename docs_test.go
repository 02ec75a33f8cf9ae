package hpcap_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// TestDocIdentifiersDefined keeps the prose docs to the code: every
// backticked Go identifier that DESIGN.md or README.md names must be
// defined by some .go file of the repository, tests and bench/ included,
// or by a standard-library package the repository imports. A span is an
// identifier when it is a dotted path of Go names with an upper-case
// letter somewhere (`Session.Predict`, `core.Train`, `flushWindows`), not
// a file name. When its first segment names a package, the second must
// be declared in that package; the rest are matched by name. Names that a
// ROADMAP item will add are listed with that item's title.
func TestDocIdentifiersDefined(t *testing.T) {
	future := map[string]string{
		"MaxConnections": "An executable spec, and a monitor that cannot be overloaded.",
	}

	repoPkgs, defined := map[string]map[string]bool{}, map[string]bool{}
	stdPaths := map[string]bool{}
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
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, ipath := range imports(f) {
			if _, ok := moduleDir(ipath); !ok && !strings.Contains(strings.Split(ipath, "/")[0], ".") {
				stdPaths[ipath] = true
			}
		}
		declare(f, repoPkgs, defined)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	stdPkgs := map[string]map[string]bool{}
	for ipath := range stdPaths {
		dir := filepath.Join(runtime.GOROOT(), "src", ipath)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			declare(f, stdPkgs, defined)
		}
	}

	named := map[string]bool{}
	span := regexp.MustCompile("`([^`]+)`")
	ident := regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)*(\(\))?$`)
	files := regexp.MustCompile(`\.(md|json|txt|go|sh|csv|pgo|golden|mod|yml)$`)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, m := range span.FindAllStringSubmatch(line, -1) {
				name := m[1]
				if !ident.MatchString(name) || files.MatchString(name) || strings.ToLower(name) == name {
					continue
				}
				segs := strings.Split(strings.TrimSuffix(name, "()"), ".")
				pkg := repoPkgs[segs[0]]
				if pkg == nil {
					pkg = stdPkgs[segs[0]]
				}
				var missing string
				for j, seg := range segs {
					switch {
					case j == 0 && pkg != nil:
					case j == 0 && strings.ToLower(seg) == seg && len(segs) > 1:
						// a receiver or variable: `d.Vectors`
					case j == 1 && pkg != nil:
						if !pkg[seg] {
							missing = seg
						}
					case !defined[seg]:
						missing = seg
					}
					if missing != "" {
						break
					}
				}
				if _, ok := future[missing]; ok {
					named[missing] = true
					continue
				}
				if missing != "" {
					t.Errorf("%s:%d: `%s` names %s, which no Go file defines", doc, i+1, name, missing)
				}
			}
		}
	}
	for name, item := range future {
		if !named[name] {
			t.Errorf("future name %s (ROADMAP: %q) is no longer named by the docs", name, item)
		}
	}
}

// declare records f's declarations: its package's top-level names in
// pkgs[package name], and every declared name — top-level, method, field
// and interface method — in defined.
func declare(f *ast.File, pkgs map[string]map[string]bool, defined map[string]bool) {
	top := pkgs[f.Name.Name]
	if top == nil {
		top = map[string]bool{}
		pkgs[f.Name.Name] = top
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				top[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					top[s.Name.Name] = true
				case *ast.ValueSpec:
					for _, name := range s.Names {
						top[name.Name] = true
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			defined[n.Name.Name] = true
		case *ast.TypeSpec:
			defined[n.Name.Name] = true
		case *ast.ValueSpec:
			for _, name := range n.Names {
				defined[name.Name] = true
			}
		case *ast.Field:
			for _, name := range n.Names {
				defined[name.Name] = true
			}
		}
		return true
	})
}
