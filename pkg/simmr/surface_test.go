package simmr

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/surface.golden")

const selfPath = "simmr/pkg/simmr"

// consumerDirs hold the programs the public API is for: a name of
// pkg/simmr that no non-test file under them reaches is surface nobody
// uses.
var consumerDirs = []string{"examples", "cmd", "benchmark"}

// supportPkgs are test-support packages: only tests import them, so
// their names are not checked and what they reference is not a use.
var supportPkgs = map[string]bool{
	"simmr/internal/sched/schedtest":         true,
	"simmr/internal/plan/plantest":           true,
	"simmr/internal/telemetry/telemetrytest": true,
}

// frozenDirs hold code that the module check reads as a consumer but
// does not hold to its rules: the benchmark is kept byte-stable so its
// numbers compare across changes.
var frozenDirs = []string{"benchmark"}

// allowed are the unused declarations the frozen benchmark still
// compiles against, each with the ROADMAP item that removes it.
var allowed = map[string]string{
	"(*obs.MetricsSink).Snapshot": "ROADMAP 1e/9b",
	"obs.RecordSink":              "ROADMAP 1a",
}

// TestExportedSurface pins every exported const, var, func and type of
// pkg/simmr, aliases included, in testdata/surface.golden, and holds the
// module's non-test code (outside benchmark/ and the test-support
// packages) to three rules (module.check):
//
//   - names: every package-level func, method, type, const and var is
//     used by some other non-test code (module.used), except that an
//     exported name of pkg/simmr must be reached from examples/, cmd/ or
//     benchmark/ (module.consumed);
//   - knobs: every exported struct field is written by some non-test
//     code (module.written);
//   - no alias loophole: a method of an aliased internal type keeps the
//     types of its signature only when a consumer calls it.
//
// Regenerate the golden with
//
//	go test ./pkg/simmr -run TestExportedSurface -update
func TestExportedSurface(t *testing.T) {
	m := loadModule(t, filepath.Join("..", ".."))
	self := m.pkgs[selfPath]
	if self == nil || len(self.decls) == 0 {
		t.Fatal("no declarations parsed in pkg/simmr")
	}
	var golden bytes.Buffer
	for _, name := range self.exported() {
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
	flagged := map[string]bool{}
	for _, f := range m.check() {
		flagged[f.name] = true
		if item, ok := allowed[f.name]; ok {
			t.Logf("%s: allowed until %s", f, item)
			continue
		}
		t.Error(f)
	}
	for name := range allowed {
		if !flagged[name] {
			t.Errorf("%s: allowed, but no longer flagged; drop it from the allow-list", name)
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

// module is a Go module's non-test code, parsed and type-checked.
type module struct {
	root string
	path string // module path, from go.mod
	fset *token.FileSet
	pkgs map[string]*modPkg
	std  types.Importer
}

// modPkg is one package of the module, without its tests.
type modPkg struct {
	path  string
	dir   string // slash-separated, relative to the module root
	fset  *token.FileSet
	files []*ast.File
	types *types.Package
	info  *types.Info
	decls map[string]*decl
}

// decl is one top-level declaration of a package.
type decl struct {
	kind string // "const", "var", "func" or "type"
	node ast.Node
}

// finding is one declaration a rule flags.
type finding struct {
	pos  token.Position
	name string // as allowed keys it: "engine.Run", "(*engine.Engine).Fork", "engine.Config.Slots"
	why  string
}

func (f finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.pos.Filename, f.pos.Line, f.name, f.why)
}

// loadModule parses and type-checks every non-test package under root.
// Standard-library imports come from the export data `go list -export`
// names.
func loadModule(t *testing.T, root string) *module {
	t.Helper()
	m := &module{root: root, fset: token.NewFileSet(), pkgs: map[string]*modPkg{}}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	m.path = modulePath(mod)
	std := map[string]bool{}
	err = filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if n := e.Name(); p != root && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(p, 0)
		if err != nil {
			return nil // no buildable Go files
		}
		rel, _ := filepath.Rel(root, p)
		pk := &modPkg{path: m.path, dir: filepath.ToSlash(rel), fset: m.fset, decls: map[string]*decl{}}
		if pk.dir != "." {
			pk.path += "/" + pk.dir
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(m.fset, filepath.Join(p, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pk.files = append(pk.files, f)
			pk.index(f)
		}
		for _, ip := range bp.Imports {
			if ip != m.path && !strings.HasPrefix(ip, m.path+"/") {
				std[ip] = true
			}
		}
		m.pkgs[pk.path] = pk
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exports, err := stdExports(root, std)
	if err != nil {
		t.Fatal(err)
	}
	m.std = importer.ForCompiler(m.fset, "gc", func(p string) (io.ReadCloser, error) {
		if f, ok := exports[p]; ok {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", p)
	})
	for _, pk := range m.sorted() {
		if _, err := m.check1(pk); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func modulePath(gomod []byte) string {
	sc := bufio.NewScanner(bytes.NewReader(gomod))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// stdExports maps each package the imports need, dependencies included,
// to its export data file.
func stdExports(root string, imports map[string]bool) (map[string]string, error) {
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for p := range imports {
		if p != "unsafe" && p != "C" {
			args = append(args, p)
		}
	}
	out := map[string]string{}
	if len(args) == 5 {
		return out, nil
	}
	cmd := exec.Command(filepath.Join(build.Default.GOROOT, "bin", "go"), args...)
	cmd.Dir = root
	b, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			err = fmt.Errorf("%v: %s", err, ee.Stderr)
		}
		return nil, fmt.Errorf("go list -export: %v", err)
	}
	for _, l := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		if p, f, ok := strings.Cut(l, "\t"); ok && f != "" {
			out[p] = f
		}
	}
	return out, nil
}

func (m *module) sorted() []*modPkg {
	out := make([]*modPkg, 0, len(m.pkgs))
	for _, pk := range m.pkgs {
		out = append(out, pk)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

// Import type-checks a module package from source on first use and
// reads any other from export data.
func (m *module) Import(p string) (*types.Package, error) {
	if pk, ok := m.pkgs[p]; ok {
		return m.check1(pk)
	}
	return m.std.Import(p)
}

func (m *module) check1(pk *modPkg) (*types.Package, error) {
	if pk.types != nil {
		return pk.types, nil
	}
	pk.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: m}
	tp, err := conf.Check(pk.path, m.fset, pk.files, pk.info)
	if err != nil {
		return nil, err
	}
	pk.types = tp
	return tp, nil
}

// index records the file's top-level declarations for the golden.
func (pk *modPkg) index(f *ast.File) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				pk.decls[d.Name.Name] = &decl{kind: "func", node: d}
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					pk.decls[spec.Name.Name] = &decl{kind: "type", node: spec}
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						pk.decls[n.Name] = &decl{kind: d.Tok.String(), node: spec}
					}
				}
			}
		}
	}
}

// exported lists the package's exported names in golden order.
func (pk *modPkg) exported() []string {
	var names []string
	for name := range pk.decls {
		if ast.IsExported(name) {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		ki, kj := kindOrder[pk.decls[names[i]].kind], kindOrder[pk.decls[names[j]].kind]
		return ki < kj || ki == kj && names[i] < names[j]
	})
	return names
}

// line renders a name's golden line: a func's signature, a type's
// alias target or kind, a const's or var's name.
func (pk *modPkg) line(name string) string {
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

func (pk *modPkg) print(n ast.Node) string {
	var b bytes.Buffer
	printer.Fprint(&b, pk.fset, n)
	return b.String()
}

// under reports whether the package sits in one of the module's dirs.
func (pk *modPkg) under(dirs ...string) bool {
	for _, d := range dirs {
		if pk.dir == d || strings.HasPrefix(pk.dir, d+"/") {
			return true
		}
	}
	return false
}

// consumer reports whether the package's code counts as a use.
func (pk *modPkg) consumer() bool { return !supportPkgs[pk.path] }

// checked reports whether the package is held to the rules.
func (pk *modPkg) checked() bool { return !supportPkgs[pk.path] && !pk.under(frozenDirs...) }

// check applies the three rules to every checked package and returns
// what they flag, in file order.
func (m *module) check() []finding {
	used, consumed, written := m.used(), m.consumed(), m.written()
	self := m.pkgs[selfPath]
	var out []finding
	for _, pk := range m.sorted() {
		if !pk.checked() {
			continue
		}
		for _, obj := range pk.objects() {
			if pk == self && obj.Exported() {
				if !consumed[obj] {
					out = append(out, m.finding(obj, m.name(obj), "no consumer: no non-test file under "+strings.Join(consumerDirs, "/, ")+"/ reaches it"))
				}
			} else if !used.of(obj) {
				out = append(out, m.finding(obj, m.name(obj), "unused: no other non-test code refers to it or calls it through an interface"))
			}
		}
		for _, fv := range pk.knobs() {
			if !written[fv.field] {
				name := pk.types.Name() + "." + fv.owner.Name() + "." + fv.field.Name()
				out = append(out, m.finding(fv.field, name, "knob nothing sets: no non-test code writes it"))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Line < b.Line
	})
	return out
}

func (m *module) finding(obj types.Object, name, why string) finding {
	pos := m.fset.Position(obj.Pos())
	if rel, err := filepath.Rel(m.root, pos.Filename); err == nil {
		pos.Filename = filepath.ToSlash(rel)
	}
	return finding{pos: pos, name: name, why: why}
}

// name renders a package-level object or method as the allow-list keys
// it.
func (m *module) name(obj types.Object) string {
	qual := func(p *types.Package) string { return p.Name() }
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				return "(*" + types.TypeString(typeName(p.Elem()), qual) + ")." + fn.Name()
			}
			return types.TypeString(typeName(t), qual) + "." + fn.Name()
		}
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

// typeName drops a receiver's type arguments.
func typeName(t types.Type) types.Type {
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj().Type()
	}
	return t
}

// objects lists the package's package-level declarations and the
// methods of its named types, leaving out init, main and blanks.
func (pk *modPkg) objects() []types.Object {
	var out []types.Object
	scope := pk.types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if name == "_" || name == "init" || name == "main" && pk.types.Name() == "main" {
			continue
		}
		out = append(out, obj)
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if n, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < n.NumMethods(); i++ {
					out = append(out, n.Method(i))
				}
			}
		}
	}
	return out
}

// knob is an exported field of a package-level struct type.
type knob struct {
	owner *types.TypeName
	field *types.Var
}

func (pk *modPkg) knobs() []knob {
	var out []knob
	scope := pk.types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() && !f.Embedded() {
				out = append(out, knob{tn, f})
			}
		}
	}
	return out
}

// uses is what the module's non-test code refers to.
type uses struct {
	refs   map[types.Object]bool
	ifaces map[string][]*types.Interface // called interface methods, by name
}

// of reports whether obj is referred to, or is a method that a called
// interface method may dispatch to.
func (u uses) of(obj types.Object) bool {
	if u.refs[obj] {
		return true
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, it := range u.ifaces[fn.Name()] {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// used collects every reference non-test code makes to a declaration
// from outside that declaration (a method's receiver does not count),
// and the interface methods it calls. The standard library's
// interfaces count as called: it calls them (String, Error, Write,
// Less and the like).
func (m *module) used() uses {
	u := uses{refs: map[types.Object]bool{}, ifaces: map[string][]*types.Interface{}}
	addIface := func(it *types.Interface, name string) {
		for _, have := range u.ifaces[name] {
			if have == it {
				return
			}
		}
		u.ifaces[name] = append(u.ifaces[name], it)
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	addIface(errIface, "Error")
	for _, pk := range m.sorted() {
		if !pk.consumer() {
			continue
		}
		for _, imp := range pk.types.Imports() {
			if _, ok := m.pkgs[imp.Path()]; ok {
				continue
			}
			scope := imp.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						for i := 0; i < it.NumMethods(); i++ {
							addIface(it, it.Method(i).Name())
						}
					}
				}
			}
		}
		for _, f := range pk.files {
			for _, d := range f.Decls {
				own := map[types.Object]bool{}
				var skip ast.Node
				switch d := d.(type) {
				case *ast.FuncDecl:
					own[pk.info.Defs[d.Name]] = true
					if d.Recv != nil {
						skip = d.Recv
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							own[pk.info.Defs[spec.Name]] = true
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								own[pk.info.Defs[n]] = true
							}
						}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if n == skip && n != nil {
						return false
					}
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					obj := origin(pk.info.Uses[id])
					if obj == nil || own[obj] {
						return true
					}
					u.refs[obj] = true
					if fn, ok := obj.(*types.Func); ok {
						if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
							if it, ok := recv.Type().Underlying().(*types.Interface); ok {
								addIface(it, fn.Name())
							}
						}
					}
					return true
				})
			}
		}
	}
	return u
}

// origin maps a generic instance's method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// written collects the struct fields non-test code sets: a keyed or
// positional composite literal, an assignment or increment, an address
// taken (&x.F, or a pointer method called on x.F), or JSON decoding
// into a type that holds the field.
func (m *module) written() map[*types.Var]bool {
	w := map[*types.Var]bool{}
	var decoded func(t types.Type, seen map[types.Type]bool)
	decoded = func(t types.Type, seen map[types.Type]bool) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named, *types.Alias:
			decoded(t.Underlying(), seen)
		case *types.Pointer:
			decoded(t.Elem(), seen)
		case *types.Slice:
			decoded(t.Elem(), seen)
		case *types.Array:
			decoded(t.Elem(), seen)
		case *types.Map:
			decoded(t.Elem(), seen)
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				w[origin(t.Field(i)).(*types.Var)] = true
				decoded(t.Field(i).Type(), seen)
			}
		}
	}
	for _, pk := range m.sorted() {
		if !pk.consumer() {
			continue
		}
		info := pk.info
		// field marks the field e selects, and the struct or array
		// value it is part of: x.F.G = v and x.A[i] = v write F and A.
		var field func(e ast.Expr)
		field = func(e ast.Expr) {
			switch e := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				if s := info.Selections[e]; s != nil && s.Kind() == types.FieldVal {
					w[origin(s.Obj()).(*types.Var)] = true
					if _, ok := info.Types[e.X].Type.Underlying().(*types.Struct); ok {
						field(e.X)
					}
				}
			case *ast.IndexExpr:
				if _, ok := info.Types[e.X].Type.Underlying().(*types.Array); ok {
					field(e.X)
				}
			}
		}
		for _, f := range pk.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					t := info.Types[n].Type
					if p, ok := t.(*types.Pointer); ok {
						t = p.Elem()
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok || len(n.Elts) == 0 {
						return true
					}
					if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
						for i := 0; i < st.NumFields(); i++ {
							w[origin(st.Field(i)).(*types.Var)] = true
						}
						return true
					}
					for _, e := range n.Elts {
						if id, ok := e.(*ast.KeyValueExpr).Key.(*ast.Ident); ok {
							if v, ok := origin(info.Uses[id]).(*types.Var); ok {
								w[v] = true
							}
						}
					}
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, l := range n.Lhs {
							field(l)
						}
					}
				case *ast.IncDecStmt:
					field(n.X)
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						field(n.Key)
						if n.Value != nil {
							field(n.Value)
						}
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						field(n.X)
					}
				case *ast.SelectorExpr:
					// x.F.M() with M on *T takes &x.F.
					if s := info.Selections[n]; s != nil && s.Kind() == types.MethodVal {
						if _, ptr := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
							if _, isPtr := s.Recv().(*types.Pointer); !isPtr {
								field(n.X)
							}
						}
					}
				case *ast.CallExpr:
					if arg := jsonTarget(info, n); arg != nil {
						decoded(info.Types[arg].Type, map[types.Type]bool{})
					}
				}
				return true
			})
		}
	}
	return w
}

// jsonTarget returns the value json.Unmarshal or (*json.Decoder).Decode
// decodes into, or nil for any other call.
func jsonTarget(info *types.Info, call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/json" {
		return nil
	}
	switch {
	case fn.Name() == "Unmarshal" && len(call.Args) == 2:
		return call.Args[1]
	case fn.Name() == "Decode" && len(call.Args) == 1:
		return call.Args[0]
	}
	return nil
}

// consumed reports which of pkg/simmr's names a consumer reaches: the
// objects non-test files under consumerDirs use, closed over the named
// types in the declarations of what they reach (a func's signature, a
// struct's exported fields, an interface's methods, an alias's target),
// and the package's error values a reached function returns. A method
// is reached only when a consumer uses it, so an alias does not keep
// the types of methods nobody calls.
func (m *module) consumed() map[types.Object]bool {
	self := m.pkgs[selfPath]
	aliasOf := map[types.Object][]types.Object{}
	for _, obj := range self.objects() {
		if tn, ok := obj.(*types.TypeName); ok && tn.IsAlias() {
			if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				aliasOf[n.Obj()] = append(aliasOf[n.Obj()], tn)
			}
		}
	}
	// The package's error values each of its functions names.
	errVals := map[types.Object][]types.Object{}
	for _, f := range self.files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn := self.info.Defs[fd.Name]
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if v, ok := self.info.Uses[id].(*types.Var); ok && v.Pkg() == self.types && v.Parent() == self.types.Scope() &&
						v.Exported() && types.Identical(v.Type(), types.Universe.Lookup("error").Type()) {
						errVals[fn] = append(errVals[fn], v)
					}
				}
				return true
			})
		}
	}

	reached := map[types.Object]bool{}
	var work []types.Object
	reach := func(obj types.Object) {
		obj = origin(obj)
		if obj == nil || obj.Pkg() == nil || reached[obj] {
			return
		}
		if _, ok := m.pkgs[obj.Pkg().Path()]; !ok {
			return
		}
		reached[obj] = true
		work = append(work, obj)
	}
	for _, pk := range m.sorted() {
		if !pk.under(consumerDirs...) {
			continue
		}
		for _, f := range pk.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					reach(pk.info.Uses[id])
				}
				return true
			})
		}
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		switch obj := obj.(type) {
		case *types.TypeName:
			if obj.IsAlias() {
				namedIn(types.Unalias(obj.Type()), reach)
				continue
			}
			for _, a := range aliasOf[obj] {
				reach(a)
			}
			switch u := obj.Type().Underlying().(type) {
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					if f := u.Field(i); f.Exported() || f.Embedded() {
						namedIn(f.Type(), reach)
					}
				}
			case *types.Interface:
				for i := 0; i < u.NumMethods(); i++ {
					if fn := u.Method(i); fn.Exported() {
						namedIn(fn.Type(), reach)
					}
				}
			default:
				namedIn(u, reach)
			}
		case *types.Func:
			namedIn(obj.Type(), reach)
			for _, v := range errVals[obj] {
				reach(v)
			}
		default:
			namedIn(obj.Type(), reach)
		}
	}
	return reached
}

// namedIn calls reach with the type name of each named type or alias t
// mentions, without entering their declarations.
func namedIn(t types.Type, reach func(types.Object)) {
	switch t := t.(type) {
	case *types.Alias:
		reach(t.Obj())
	case *types.Named:
		reach(t.Obj())
		for i := 0; i < t.TypeArgs().Len(); i++ {
			namedIn(t.TypeArgs().At(i), reach)
		}
	case *types.Pointer:
		namedIn(t.Elem(), reach)
	case *types.Slice:
		namedIn(t.Elem(), reach)
	case *types.Array:
		namedIn(t.Elem(), reach)
	case *types.Chan:
		namedIn(t.Elem(), reach)
	case *types.Map:
		namedIn(t.Key(), reach)
		namedIn(t.Elem(), reach)
	case *types.Signature:
		namedIn(t.Params(), reach)
		namedIn(t.Results(), reach)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			namedIn(t.At(i).Type(), reach)
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() || f.Embedded() {
				namedIn(f.Type(), reach)
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			namedIn(t.Method(i).Type(), reach)
		}
	}
}

// surfaceFixture writes a small module that exercises each clause of
// the three rules, loads it, and returns what the check flags, by name.
func surfaceFixture(t *testing.T) (*module, map[string]bool) {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module simmr\n\ngo 1.22\n",
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
	Sealed = inner.Sealed
)

func Run(c Config) (*Event, error) { _ = c.hidden; return nil, ErrUsed }

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

type Sealed struct{}

func (e Event) Answer() Reply { _ = e.s; return Reply{} }

func (Event) Seal() Sealed { return Sealed{} }
`,
		"internal/lib/lib.go": `package lib

type Shape interface{ Area() float64 }

type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

func (s Square) Perimeter() float64 { return 4 * s.Side }

type Label struct{}

func (Label) String() string { return "label" }

func Total(shapes []Shape) float64 {
	var t float64
	for _, s := range shapes {
		t += s.Area()
	}
	return t
}

func Countdown(n int) int {
	if n == 0 {
		return 0
	}
	return Countdown(n - 1)
}

func Spin(n int) int {
	if n == 0 {
		return 0
	}
	return Spin(n - 1)
}

func TestOnly() {}

func SupportOnly() {}

func BenchOnly() {}

const (
	laneSched = iota + 1
	laneNone  = 0
)

func Lane() int { return laneSched }
`,
		"internal/knobs/knobs.go": `package knobs

import (
	"bytes"
	"encoding/json"
)

type Opts struct {
	Keyed     int
	Assigned  int
	Addressed int
	Bumped    int
	Elems     [2]int
	Nested    Sub
	Buf       bytes.Buffer
	Never     int
	TestSet   int
	unexported int
}

type Sub struct{ V int }

type Pair struct{ X, Y int }

type Wire struct {
	A    int
	Deep struct{ B []Sub }
}

func Load(data []byte) (*Wire, error) {
	var w Wire
	return &w, json.Unmarshal(data, &w)
}
`,
		"internal/sched/schedtest/schedtest.go": `package schedtest

import "simmr/internal/lib"

func Helper() { lib.SupportOnly() }
`,
		"benchmark/main.go": `package main

import "simmr/internal/lib"

func main() { lib.BenchOnly() }

func unusedInBenchmark() {}
`,
		"cmd/tool/main.go": `package main

import (
	"fmt"

	"simmr/internal/knobs"
	"simmr/internal/lib"
	"simmr/pkg/simmr"
)

func main() {
	ev, _ := simmr.Run(simmr.Config{})
	ev.Answer()
	fmt.Println(lib.Total([]lib.Shape{lib.Square{Side: 2}}), lib.Label{}, lib.Countdown(3), lib.Lane())
	o := knobs.Opts{Keyed: 1}
	o.Assigned = 2
	p := &o.Addressed
	o.Bumped++
	o.Elems[0] = *p
	o.Nested.V = 1
	o.Buf.WriteString("x")
	fmt.Println(o, knobs.Pair{1, 2})
	knobs.Load(nil)
}
`,
		"cmd/tool/main_test.go": `package main

import (
	"simmr/internal/knobs"
	"simmr/internal/lib"
	"simmr/pkg/simmr"
)

func helper() {
	simmr.TestOnly()
	lib.TestOnly()
	var o knobs.Opts
	o.TestSet = 1
}
`,
		"internal/other/other.go": `package other

func Orphan() {}
`,
		"examples/demo/main.go": `package main

import (
	simmr "simmr/internal/other"
	sm "simmr/pkg/simmr"
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
	m := loadModule(t, root)
	flagged := map[string]bool{}
	for _, f := range m.check() {
		flagged[f.name] = true
	}
	return m, flagged
}

// checkFlagged fails for each name whose flagged state is not want.
func checkFlagged(t *testing.T, flagged map[string]bool, want map[string]bool) {
	t.Helper()
	for name, w := range want {
		if flagged[name] != w {
			t.Errorf("%s: flagged = %v, want %v", name, flagged[name], w)
		}
	}
}

// A pkg/simmr name a non-test consumer selects has a consumer; one
// selected only in a _test.go file, or by nothing, is flagged.
func TestSurfaceSelectionConsumes(t *testing.T) {
	_, flagged := surfaceFixture(t)
	checkFlagged(t, flagged, map[string]bool{
		"simmr.Run": false, "simmr.TestOnly": true, "simmr.Orphan": true, "simmr.Version": true,
	})
}

// Selections count by the package they resolve to, not by the local
// name a file gives it: a renamed import of pkg/simmr consumes, another
// package imported as "simmr" does not.
func TestSurfaceSelectionFollowsImportPath(t *testing.T) {
	_, flagged := surfaceFixture(t)
	checkFlagged(t, flagged, map[string]bool{
		"simmr.Renamed": false, "simmr.Orphan": true, "other.Orphan": false,
	})
}

// A consumed function keeps the types of its signature, and a consumed
// struct the types of its exported fields only.
func TestSurfaceFollowsDeclarations(t *testing.T) {
	_, flagged := surfaceFixture(t)
	checkFlagged(t, flagged, map[string]bool{
		"simmr.Config": false, "simmr.Option": false, "simmr.Hidden": true,
	})
}

// A consumed alias of an internal type keeps the aliases of the types
// in the target's exported fields, and of the types in the signature of
// each method a consumer calls: Answer keeps Reply, while Seal, which
// no consumer calls, keeps nothing.
func TestSurfaceFollowsAliasTargets(t *testing.T) {
	_, flagged := surfaceFixture(t)
	checkFlagged(t, flagged, map[string]bool{
		"simmr.Event": false, "simmr.Detail": false, "simmr.Reply": false,
		"simmr.Secret": true, "simmr.Sealed": true,
	})
}

// An error value is consumed when a consumed function returns it.
func TestSurfaceErrorValues(t *testing.T) {
	_, flagged := surfaceFixture(t)
	checkFlagged(t, flagged, map[string]bool{
		"simmr.ErrUsed": false, "simmr.ErrOrphan": true,
	})
}

// An internal declaration needs a use from other non-test code: a call
// through an interface the code calls, or one the standard library
// calls (String), counts; a method's own receiver, its own recursion, a
// _test.go file and a test-support package do not. The benchmark's
// uses count, and its own declarations are not checked.
func TestSurfaceNamesNeedAUse(t *testing.T) {
	_, flagged := surfaceFixture(t)
	checkFlagged(t, flagged, map[string]bool{
		"lib.Total": false, "lib.Square.Area": false, "lib.Label.String": false,
		"lib.Lane": false, "lib.laneSched": false, "lib.BenchOnly": false,
		"inner.Event.Answer":   false,
		"lib.Square.Perimeter": true, "lib.TestOnly": true, "lib.SupportOnly": true,
		"lib.laneNone": true, "inner.Event.Seal": true,
		"lib.Countdown": false, "lib.Spin": true,
		"main.unusedInBenchmark": false, "schedtest.Helper": false,
	})
}

// An exported field needs a write from non-test code: a keyed or
// positional literal, an assignment or increment, its address, a
// pointer method called on it, a write to its element or to a field of
// it, or JSON decoding into a type that holds it.
func TestSurfaceKnobsNeedAWrite(t *testing.T) {
	_, flagged := surfaceFixture(t)
	checkFlagged(t, flagged, map[string]bool{
		"knobs.Opts.Keyed": false, "knobs.Opts.Assigned": false,
		"knobs.Opts.Addressed": false, "knobs.Opts.Bumped": false,
		"knobs.Opts.Elems": false, "knobs.Opts.Nested": false,
		"knobs.Sub.V": false, "knobs.Opts.Buf": false,
		"knobs.Pair.X": false, "knobs.Pair.Y": false,
		"knobs.Wire.A": false, "knobs.Wire.Deep": false,
		"knobs.Opts.Never": true, "knobs.Opts.TestSet": true,
	})
}

// TestSurfaceLines pins how each kind of name renders in the golden.
func TestSurfaceLines(t *testing.T) {
	m, _ := surfaceFixture(t)
	self := m.pkgs[selfPath]
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
