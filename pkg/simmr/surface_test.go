package simmr

import (
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/surface.golden")

const selfPath = "simmr/pkg/simmr"

// consumerDirs hold the programs the public API is for: a name that no
// non-test file under them reaches is surface nobody uses.
var consumerDirs = []string{"examples", "cmd", "benchmark"}

// TestExportedSurface pins every exported const, var, func and type of
// the package, aliases included, in testdata/surface.golden, and fails on
// each exported name without a consumer. A name is consumed when
//
//   - a non-test file under examples/, cmd/ or benchmark/ selects it
//     (simmr.Name);
//   - it names a type that appears in a consumed name's declaration — for
//     an alias of an internal type, in the target's exported fields and
//     method signatures, followed through the internal types they name —
//     so Policy keeps JobInfo and ReplayResult keeps JobOutcome;
//   - it is an error value a consumed function returns, which callers
//     test with errors.Is.
//
// Regenerate the golden with
//
//	go test ./pkg/simmr -run TestExportedSurface -update
func TestExportedSurface(t *testing.T) {
	src := &sourceIndex{root: filepath.Join("..", ".."), pkgs: map[string]*srcPkg{}}
	self := src.pkg(selfPath)
	if self == nil || len(self.decls) == 0 {
		t.Fatal("no declarations parsed in pkg/simmr")
	}
	var names []string
	for name := range self.decls {
		if ast.IsExported(name) {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		ki, kj := kindOrder[self.decls[names[i]].kind], kindOrder[self.decls[names[j]].kind]
		return ki < kj || ki == kj && names[i] < names[j]
	})

	var golden bytes.Buffer
	for _, name := range names {
		golden.WriteString(self.line(name))
		golden.WriteByte('\n')
	}
	goldenPath := filepath.Join("testdata", "surface.golden")
	if *update {
		if err := os.WriteFile(goldenPath, golden.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(golden.Bytes(), want) {
		t.Errorf("exported surface differs from %s (run with -update to accept):\n%s", goldenPath, lineDiff(string(want), golden.String()))
	}

	consumed := src.consumed()
	for _, name := range names {
		if !consumed[name] {
			t.Errorf("%s: no consumer — no non-test file under %s/ selects it, and no consumed declaration names it", self.line(name), strings.Join(consumerDirs, "/, "))
		}
	}
}

var kindOrder = map[string]int{"const": 0, "var": 1, "func": 2, "type": 3}

// lineDiff lists the lines only want has ("-") and only got has ("+").
func lineDiff(want, got string) string {
	count := map[string]int{}
	for _, l := range strings.Split(want, "\n") {
		count[l]--
	}
	for _, l := range strings.Split(got, "\n") {
		count[l]++
	}
	var out []string
	for l, n := range count {
		switch {
		case n < 0:
			out = append(out, "- "+l)
		case n > 0:
			out = append(out, "+ "+l)
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// decl is one top-level declaration of a package.
type decl struct {
	kind string // "const", "var", "func" or "type"
	file *ast.File
	node ast.Node // *ast.ValueSpec, *ast.FuncDecl or *ast.TypeSpec
}

// srcPkg is a package of the module, parsed without its tests.
type srcPkg struct {
	path    string
	fset    *token.FileSet
	decls   map[string]*decl
	methods map[string][]*ast.FuncDecl // exported methods by receiver type name
	imports map[*ast.File]map[string]string
}

// sourceIndex parses the module's packages on demand.
type sourceIndex struct {
	root string
	pkgs map[string]*srcPkg
}

// pkg parses the module package at import path p, or returns nil for a
// path outside the module.
func (s *sourceIndex) pkg(p string) *srcPkg {
	if pk, ok := s.pkgs[p]; ok {
		return pk
	}
	var pk *srcPkg
	if rel, ok := strings.CutPrefix(p, "simmr/"); ok {
		pk = &srcPkg{path: p, fset: token.NewFileSet(), decls: map[string]*decl{},
			methods: map[string][]*ast.FuncDecl{}, imports: map[*ast.File]map[string]string{}}
		for _, f := range parseDir(pk.fset, filepath.Join(s.root, filepath.FromSlash(rel))) {
			pk.add(f)
		}
	}
	s.pkgs[p] = pk
	return pk
}

// parseDir parses the non-test Go files of one directory.
func parseDir(fset *token.FileSet, dir string) []*ast.File {
	ents, _ := os.ReadDir(dir)
	var files []*ast.File
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		if f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution); err == nil {
			files = append(files, f)
		}
	}
	return files
}

func (pk *srcPkg) add(f *ast.File) {
	pk.imports[f] = fileImports(f)
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				pk.decls[d.Name.Name] = &decl{kind: "func", file: f, node: d}
			} else if ast.IsExported(d.Name.Name) {
				recv := recvName(d.Recv.List[0].Type)
				pk.methods[recv] = append(pk.methods[recv], d)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					pk.decls[spec.Name.Name] = &decl{kind: "type", file: f, node: spec}
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						pk.decls[n.Name] = &decl{kind: d.Tok.String(), file: f, node: spec}
					}
				}
			}
		}
	}
}

// fileImports maps each import's local name in f to its path.
func fileImports(f *ast.File) map[string]string {
	m := map[string]string{}
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		m[name] = p
	}
	return m
}

func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// line renders a name's golden line: a func's signature, a type's
// alias target or kind, a const's or var's name.
func (pk *srcPkg) line(name string) string {
	d := pk.decls[name]
	switch n := d.node.(type) {
	case *ast.FuncDecl:
		return "func " + name + strings.TrimPrefix(pk.print(n.Type), "func")
	case *ast.TypeSpec:
		switch t := n.Type.(type) {
		case *ast.StructType:
			return "type " + name + " struct"
		case *ast.InterfaceType:
			return "type " + name + " interface"
		default:
			if n.Assign.IsValid() {
				return "type " + name + " = " + pk.print(t)
			}
			return "type " + name + " " + pk.print(t)
		}
	}
	return d.kind + " " + name
}

func (pk *srcPkg) print(n ast.Node) string {
	var b bytes.Buffer
	printer.Fprint(&b, pk.fset, n)
	return b.String()
}

// consumed reports which of the package's names have a consumer: the
// selections made under consumerDirs, closed over the types their
// declarations name and the error values their functions return.
func (s *sourceIndex) consumed() map[string]bool {
	self := s.pkg(selfPath)
	// Internal types re-exported by an alias: reaching the target
	// reaches the alias.
	aliasOf := map[[2]string][]string{}
	for name, d := range self.decls {
		if ts, ok := d.node.(*ast.TypeSpec); ok && ts.Assign.IsValid() {
			if sel, ok := ts.Type.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok {
					key := [2]string{self.imports[d.file][x.Name], sel.Sel.Name}
					aliasOf[key] = append(aliasOf[key], name)
				}
			}
		}
	}

	consumed := map[string]bool{}
	seen := map[[2]string]bool{}
	var work [][2]string
	reach := func(p, name string) {
		if k := [2]string{p, name}; !seen[k] {
			seen[k] = true
			work = append(work, k)
		}
	}
	for _, dir := range consumerDirs {
		filepath.WalkDir(filepath.Join(s.root, dir), func(p string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil
			}
			for local, ip := range fileImports(f) {
				if ip != selfPath {
					continue
				}
				ast.Inspect(f, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
							reach(selfPath, sel.Sel.Name)
						}
					}
					return true
				})
			}
			return nil
		})
	}

	for len(work) > 0 {
		k := work[len(work)-1]
		work = work[:len(work)-1]
		for _, alias := range aliasOf[k] {
			reach(selfPath, alias)
		}
		pk := s.pkg(k[0])
		if pk == nil {
			continue
		}
		d := pk.decls[k[1]]
		if d == nil {
			continue
		}
		if pk == self {
			consumed[k[1]] = true
		}
		refs := func(n ast.Node) { pk.typeRefs(d.file, n, reach) }
		switch n := d.node.(type) {
		case *ast.FuncDecl:
			refs(n.Type)
			if pk == self && n.Body != nil {
				// The package's error values a consumed function returns.
				ast.Inspect(n.Body, func(b ast.Node) bool {
					if id, ok := b.(*ast.Ident); ok && self.isErrorValue(id.Name) {
						reach(selfPath, id.Name)
					}
					return true
				})
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				refs(n.Type)
			}
		case *ast.TypeSpec:
			switch t := n.Type.(type) {
			case *ast.StructType:
				refs(exportedFields(t.Fields))
			case *ast.InterfaceType:
				refs(exportedFields(t.Methods))
			default:
				refs(t)
			}
			for _, m := range pk.methods[k[1]] {
				refs(m.Type)
			}
		}
	}
	return consumed
}

// isErrorValue reports whether name is an exported var built by
// errors.New.
func (pk *srcPkg) isErrorValue(name string) bool {
	d := pk.decls[name]
	if d == nil || d.kind != "var" || !ast.IsExported(name) {
		return false
	}
	for _, v := range d.node.(*ast.ValueSpec).Values {
		if call, ok := v.(*ast.CallExpr); ok && pk.print(call.Fun) == "errors.New" {
			return true
		}
	}
	return false
}

// exportedFields keeps a struct's or interface's exported and embedded
// members: what a caller outside the package can reach.
func exportedFields(fl *ast.FieldList) *ast.FieldList {
	out := &ast.FieldList{}
	for _, f := range fl.List {
		keep := len(f.Names) == 0
		for _, n := range f.Names {
			keep = keep || n.IsExported()
		}
		if keep {
			out.List = append(out.List, f)
		}
	}
	return out
}

// typeRefs calls reach with the (import path, name) of every named type
// n mentions; builtins and type parameters resolve to names no package
// of the module declares. Field and parameter names are skipped.
func (pk *srcPkg) typeRefs(f *ast.File, n ast.Node, reach func(p, name string)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Field:
			pk.typeRefs(f, n.Type, reach)
			return false
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if p, ok := pk.imports[f][x.Name]; ok {
					reach(p, n.Sel.Name)
				}
			}
			return false
		case *ast.Ident:
			reach(pk.path, n.Name)
		}
		return true
	})
}

// surfaceFixture writes a small module tree whose pkg/simmr exercises
// each clause of the consumer rule, and indexes it.
func surfaceFixture(t *testing.T) *sourceIndex {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"pkg/simmr/api.go": `package simmr

import (
	"errors"

	"simmr/internal/inner"
)

var ErrUsed = errors.New("used")

var ErrOrphan = errors.New("orphan")

const Version = "1"

type Config struct {
	Opt    Option
	hidden Hidden
}

type Option struct{}

type Hidden struct{}

type (
	Event  = inner.Event
	Detail = inner.Detail
	Secret = inner.Secret
	Reply  = inner.Reply
)

func Run(c Config) (*Event, error) { return nil, ErrUsed }

func Renamed() {}

func Orphan() error { return ErrOrphan }

func TestOnly() {}
`,
		"internal/inner/inner.go": `package inner

type Event struct {
	D Detail
	s Secret
}

type Detail struct{}

type Secret struct{}

type Reply struct{}

func (Event) Answer() Reply { return Reply{} }
`,
		"cmd/tool/main.go": `package main

import "simmr/pkg/simmr"

func main() { simmr.Run(simmr.Config{}) }
`,
		"cmd/tool/main_test.go": `package main

import "simmr/pkg/simmr"

func helper() { simmr.TestOnly() }
`,
		"examples/demo/main.go": `package main

import (
	sm "simmr/pkg/simmr"
	simmr "example.com/other"
)

func main() {
	sm.Renamed()
	simmr.Orphan()
}
`,
	}
	for name, body := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return &sourceIndex{root: root, pkgs: map[string]*srcPkg{}}
}

// checkConsumed fails for each name whose consumed state is not want.
func checkConsumed(t *testing.T, consumed map[string]bool, want map[string]bool) {
	t.Helper()
	for name, w := range want {
		if consumed[name] != w {
			t.Errorf("%s: consumed = %v, want %v", name, consumed[name], w)
		}
	}
}

// A non-test consumer's selection consumes a name; one made only in a
// _test.go file does not, and a name nothing selects is flagged.
func TestSurfaceSelectionConsumes(t *testing.T) {
	checkConsumed(t, surfaceFixture(t).consumed(), map[string]bool{
		"Run": true, "TestOnly": false, "Orphan": false, "Version": false,
	})
}

// Selections count by import path, not by the local name a file gives
// the package: a renamed import consumes, another package imported as
// "simmr" does not.
func TestSurfaceSelectionFollowsImportPath(t *testing.T) {
	checkConsumed(t, surfaceFixture(t).consumed(), map[string]bool{
		"Renamed": true, "Orphan": false,
	})
}

// A consumed function keeps the types of its signature, and a consumed
// struct the types of its exported fields only.
func TestSurfaceFollowsDeclarations(t *testing.T) {
	checkConsumed(t, surfaceFixture(t).consumed(), map[string]bool{
		"Config": true, "Option": true, "Hidden": false,
	})
}

// A consumed alias of an internal type keeps the aliases of the types
// in the target's exported fields and method signatures, and no others.
func TestSurfaceFollowsAliasTargets(t *testing.T) {
	checkConsumed(t, surfaceFixture(t).consumed(), map[string]bool{
		"Event": true, "Detail": true, "Reply": true, "Secret": false,
	})
}

// An error value is consumed when a consumed function returns it.
func TestSurfaceErrorValues(t *testing.T) {
	checkConsumed(t, surfaceFixture(t).consumed(), map[string]bool{
		"ErrUsed": true, "ErrOrphan": false,
	})
}

// TestSurfaceLines pins how each kind of name renders in the golden.
func TestSurfaceLines(t *testing.T) {
	self := surfaceFixture(t).pkg(selfPath)
	for name, want := range map[string]string{
		"Run":     "func Run(c Config) (*Event, error)",
		"Event":   "type Event = inner.Event",
		"Config":  "type Config struct",
		"ErrUsed": "var ErrUsed",
		"Version": "const Version",
	} {
		if got := self.line(name); got != want {
			t.Errorf("%s renders %q, want %q", name, got, want)
		}
	}
}
