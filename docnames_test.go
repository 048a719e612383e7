package difane_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docName is a root-package name as prose shows it: difane.Name, or
// difane.Type.Field.
var docName = regexp.MustCompile(`\bdifane\.([A-Z]\w*)(?:\.([A-Z]\w*))?`)

// TestDocNames holds README.md and the package doc in difane.go to the
// root package as the source declares it: every difane.Name they show is
// an exported identifier of package difane, and in difane.Type.Field the
// field is one of the type's (of the one it aliases, for an alias of an
// internal type).
func TestDocNames(t *testing.T) {
	root := parsePackage(t, ".")
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string]string{"README.md": string(readme)}
	for name, f := range root.files {
		if f.Doc != nil {
			docs[name+"'s package doc"] = f.Doc.Text()
		}
	}
	for where, text := range docs {
		for _, m := range docName.FindAllStringSubmatch(text, -1) {
			spec, ok := root.decls[m[1]]
			switch {
			case !ok:
				t.Errorf("%s names %s: package difane declares no %s", where, m[0], m[1])
			case m[2] != "" && spec != nil && !hasField(t, root, spec, m[2]):
				t.Errorf("%s names %s: %s has no field %s", where, m[0], m[1], m[2])
			}
		}
	}
}

// goPackage is one package's non-test files, parsed: its top-level names
// (a type's with its spec, nil for the rest), and the files' imports by
// local name.
type goPackage struct {
	files   map[string]*ast.File
	decls   map[string]*ast.TypeSpec
	imports map[string]string
}

func parsePackage(t *testing.T, dir string) *goPackage {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	p := &goPackage{files: map[string]*ast.File{}, decls: map[string]*ast.TypeSpec{}, imports: map[string]string{}}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			p.files[filepath.Base(name)] = f
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				local := filepath.Base(path)
				if imp.Name != nil {
					local = imp.Name.Name
				}
				p.imports[local] = path
			}
			for _, d := range f.Decls {
				p.declare(d)
			}
		}
	}
	return p
}

func (p *goPackage) declare(d ast.Decl) {
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			p.decls[d.Name.Name] = nil
		}
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				p.decls[s.Name.Name] = s
			case *ast.ValueSpec:
				for _, n := range s.Names {
					p.decls[n.Name] = nil
				}
			}
		}
	}
}

// hasField reports whether the type spec declares, in p, a field named
// field, following an alias of another package's type into that package's
// source.
func hasField(t *testing.T, p *goPackage, spec *ast.TypeSpec, field string) bool {
	switch typ := spec.Type.(type) {
	case *ast.StructType:
		for _, f := range typ.Fields.List {
			for _, n := range f.Names {
				if n.Name == field {
					return true
				}
			}
		}
	case *ast.SelectorExpr:
		pkg, ok := typ.X.(*ast.Ident)
		if !ok {
			return false
		}
		dir, ok := strings.CutPrefix(p.imports[pkg.Name], "difane/")
		if !ok {
			return false
		}
		q := parsePackage(t, dir)
		if target := q.decls[typ.Sel.Name]; target != nil {
			return hasField(t, q, target, field)
		}
	}
	return false
}
