// Package surface holds one test: every exported identifier under
// internal/ must be referenced by non-test code outside its own package,
// be exempt by rule, or be named in testdata/allow.txt with a reason.
//
// The check type-checks the whole tree from source with go/parser and
// go/types — the root module and every nested module (benchmark/), whose
// references count like any other package's; a conversion between two
// struct types counts as a use of every field of both. Standard-library
// imports are read from the compiler's export data, located with one
// `go list -export` call. A name is exempt when it is
//   - a struct field with a json: tag (the wire reads it by reflection);
//   - a method that makes its type (or its pointer) satisfy an interface
//     declared in the tree or in an imported standard package;
//   - a type reached from the signature, type or exported fields of a name
//     used outside its package (callers hold its values without naming it).
//
// Everything else must be used outside its package or listed; a listed
// name that is no longer a candidate fails the test too, so the list can
// only shrink.
package surface

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// A tree is the parsed non-test source of one directory tree: every
// package of every module under it, keyed by import path.
type tree struct {
	fset    *token.FileSet
	mods    []string // module paths, longest first
	pkgs    map[string][]*ast.File
	checked map[string]*types.Package
	info    map[string]*types.Info
	std     types.Importer
}

// loadTree parses every package under root. A go.mod starts a module;
// testdata, hidden and underscore directories are skipped, as the go
// tool skips them.
func loadTree(root string) (*tree, error) {
	t := &tree{fset: token.NewFileSet(), pkgs: map[string][]*ast.File{}}
	modOf := map[string]string{} // directory -> module path at that directory
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		imp := ""
		if data, err := os.ReadFile(filepath.Join(p, "go.mod")); err == nil {
			imp = modulePath(data)
			if imp == "" {
				return fmt.Errorf("%s/go.mod: no module line", p)
			}
			t.mods = append(t.mods, imp)
		} else if parent, ok := modOf[filepath.Dir(p)]; ok {
			imp = path.Join(parent, name)
		} else {
			return filepath.SkipDir // outside any module
		}
		modOf[p] = imp
		ents, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range ents {
			n := e.Name()
			if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
				continue
			}
			if ok, err := build.Default.MatchFile(p, n); err != nil || !ok {
				continue
			}
			f, err := parser.ParseFile(t.fset, filepath.Join(p, n), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			t.pkgs[imp] = append(t.pkgs[imp], f)
		}
		return nil
	})
	sort.Slice(t.mods, func(i, j int) bool { return len(t.mods[i]) > len(t.mods[j]) })
	return t, err
}

func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`)
		}
	}
	return ""
}

// local reports whether an import path names a package of the tree.
func (t *tree) local(p string) bool {
	for _, m := range t.mods {
		if p == m || strings.HasPrefix(p, m+"/") {
			return true
		}
	}
	return false
}

// check type-checks every package of the tree.
func (t *tree) check() error {
	var std []string
	seen := map[string]bool{}
	for _, files := range t.pkgs {
		for _, f := range files {
			for _, s := range f.Imports {
				p := strings.Trim(s.Path.Value, `"`)
				if !t.local(p) && !seen[p] {
					seen[p] = true
					std = append(std, p)
				}
			}
		}
	}
	exports, err := exportData(std)
	if err != nil {
		return err
	}
	t.std = importer.ForCompiler(t.fset, "gc", func(p string) (io.ReadCloser, error) {
		file, ok := exports[p]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", p)
		}
		return os.Open(file)
	})
	t.checked = map[string]*types.Package{}
	t.info = map[string]*types.Info{}
	for p := range t.pkgs {
		if _, err := t.Import(p); err != nil {
			return err
		}
	}
	return nil
}

// exportData maps each standard package to its export data file.
func exportData(pkgs []string) (map[string]string, error) {
	m := map[string]string{}
	if len(pkgs) == 0 {
		return m, nil
	}
	args := append([]string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}, pkgs...)
	// go test puts its own toolchain first on PATH.
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if p, file, ok := strings.Cut(line, " "); ok {
			m[p] = file
		}
	}
	return m, nil
}

// Import type-checks a package of the tree on first use; any other path
// comes from export data.
func (t *tree) Import(p string) (*types.Package, error) {
	if !t.local(p) {
		return t.std.Import(p)
	}
	if pkg, ok := t.checked[p]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", p)
		}
		return pkg, nil
	}
	files, ok := t.pkgs[p]
	if !ok {
		return nil, fmt.Errorf("package %s not in tree", p)
	}
	t.checked[p] = nil
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	pkg, err := (&types.Config{Importer: t}).Check(p, t.fset, files, info)
	if err != nil {
		return nil, err
	}
	t.checked[p], t.info[p] = pkg, info
	return pkg, nil
}

// A name is one exported identifier: a package-level object, or a method
// or field of a named type the package declares.
type name struct {
	key  string // "rete.Network.AddProduction", the package path relative to the scope
	obj  types.Object
	recv *types.Named // for a method or field
	tag  string       // a field's struct tag
}

// names lists the exported identifiers of every package under scope
// (an import path prefix such as "soarpsme/internal").
func (t *tree) names(scope string) []name {
	var out []name
	for p, pkg := range t.checked {
		rel, ok := strings.CutPrefix(p, scope+"/")
		if !ok {
			continue
		}
		s := pkg.Scope()
		for _, id := range s.Names() {
			obj := s.Lookup(id)
			if obj.Exported() {
				out = append(out, name{key: rel + "." + id, obj: obj})
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					out = append(out, name{key: rel + "." + id + "." + m.Name(), obj: m, recv: named})
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					// An embedded field is named by its type, not declared.
					if f := st.Field(i); f.Exported() && !f.Embedded() {
						out = append(out, name{key: rel + "." + id + "." + f.Name(), obj: f, recv: named, tag: st.Tag(i)})
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// origin maps an object of an instantiated generic type back to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// usedOutside is every object some package references from outside the
// package that declares it. A conversion between struct types names no
// field but needs every field of both sides, so it uses them all.
func (t *tree) usedOutside() map[types.Object]bool {
	used := map[types.Object]bool{}
	for p, info := range t.info {
		for _, obj := range info.Uses {
			if obj.Pkg() != nil && obj.Pkg().Path() != p {
				used[origin(obj)] = true
			}
		}
		for _, f := range t.pkgs[p] {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 || !info.Types[call.Fun].IsType() {
					return true
				}
				for _, typ := range []types.Type{info.Types[call.Fun].Type, info.Types[call.Args[0]].Type} {
					if st, ok := typ.Underlying().(*types.Struct); ok {
						for i := 0; i < st.NumFields(); i++ {
							if f := st.Field(i); f.Pkg() != nil && f.Pkg().Path() != p {
								used[origin(f)] = true
							}
						}
					}
				}
				return true
			})
		}
	}
	return used
}

// interfaces collects every non-empty interface of the tree (named or
// written inline) and every named interface of a standard package the
// tree imports, directly or not.
func (t *tree) interfaces() []*types.Interface {
	var out []*types.Interface
	seenPkg := map[*types.Package]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if seenPkg[pkg] {
			return
		}
		seenPkg[pkg] = true
		s := pkg.Scope()
		for _, id := range s.Names() {
			if tn, ok := s.Lookup(id).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range t.checked {
		visit(pkg)
	}
	for _, info := range t.info {
		for _, tv := range info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
	}
	return out
}

// satisfies reports whether method m is needed for its receiver type, or
// a pointer to it, to implement one of ifaces.
func satisfies(recv *types.Named, m *types.Func, ifaces []*types.Interface) bool {
	if recv.TypeParams().Len() > 0 {
		return false // a generic type implements nothing until instantiated
	}
	for _, it := range ifaces {
		if !hasMethod(it, m.Name()) {
			continue
		}
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}

func hasMethod(it *types.Interface, id string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == id {
			return true
		}
	}
	return false
}

// reached is every named type reachable from the used objects: through
// a function's signature, a variable's, constant's or field's type, and
// a type's underlying type and exported fields, transitively.
func reached(used map[types.Object]bool) map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	seen := map[types.Type]bool{}
	var walk func(types.Type)
	walk = func(typ types.Type) {
		if typ == nil || seen[typ] {
			return
		}
		seen[typ] = true
		switch x := typ.(type) {
		case *types.Named:
			out[x.Origin().Obj()] = true
			for i := 0; i < x.TypeArgs().Len(); i++ {
				walk(x.TypeArgs().At(i))
			}
			walk(x.Underlying())
		case *types.Alias:
			walk(types.Unalias(x))
		case *types.Pointer:
			walk(x.Elem())
		case *types.Slice:
			walk(x.Elem())
		case *types.Array:
			walk(x.Elem())
		case *types.Chan:
			walk(x.Elem())
		case *types.Map:
			walk(x.Key())
			walk(x.Elem())
		case *types.Signature:
			for i := 0; i < x.Params().Len(); i++ {
				walk(x.Params().At(i).Type())
			}
			for i := 0; i < x.Results().Len(); i++ {
				walk(x.Results().At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < x.NumFields(); i++ {
				if f := x.Field(i); f.Exported() || f.Embedded() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < x.NumMethods(); i++ {
				walk(x.Method(i).Type())
			}
		}
	}
	for obj := range used {
		walk(obj.Type())
	}
	return out
}

// candidates lists the exported identifiers under scope that nothing
// outside their package uses and no rule exempts.
func (t *tree) candidates(scope string) (all []name, cands []string) {
	all = t.names(scope)
	used := t.usedOutside()
	ifaces := t.interfaces()
	reach := reached(used)
	for _, n := range all {
		m, isFunc := n.obj.(*types.Func)
		tn, isType := n.obj.(*types.TypeName)
		switch {
		case used[n.obj]:
		case reflect.StructTag(n.tag).Get("json") != "":
		case isFunc && n.recv != nil && satisfies(n.recv, m, ifaces):
		case isType && reach[tn]:
		default:
			cands = append(cands, n.key)
		}
	}
	return all, cands
}

// readAllow parses the allow-list: one "name reason…" per line, # comments.
func readAllow(file string) (map[string]string, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if reason = strings.TrimSpace(reason); reason == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", file, n, key)
		}
		if _, dup := allow[key]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", file, n, key)
		}
		allow[key] = reason
	}
	return allow, sc.Err()
}

// TestExportedSurface is the guard: an exported name under internal/
// that only its own package (or only tests) uses fails it, unless the
// allow-list names it; a listed name that is no longer a candidate fails
// it too.
func TestExportedSurface(t *testing.T) {
	tr, err := loadTree(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
	allow, err := readAllow(filepath.Join("testdata", "allow.txt"))
	if err != nil {
		t.Fatal(err)
	}
	all, cands := tr.candidates("soarpsme/internal")
	t.Logf("%d exported names under internal/, %d candidates, %d allowed", len(all), len(cands), len(allow))
	for _, c := range cands {
		if _, ok := allow[c]; !ok {
			t.Errorf("%s is exported but nothing outside its package uses it: unexport it, delete it, or list it in testdata/allow.txt with a reason", c)
		}
		delete(allow, c)
	}
	for key := range allow {
		t.Errorf("%s is listed in testdata/allow.txt but is not a candidate: remove the entry", key)
	}
}

// TestClassifier runs the guard's classifier over small trees: module m,
// whose internal/a package declares the names under test, and a second
// module m/bench nested in it, as benchmark/ is in this repository.
func TestClassifier(t *testing.T) {
	const gomod = "module m\n\ngo 1.22\n"
	cases := []struct {
		name  string
		files map[string]string
		want  []string // the candidates, sorted
	}{
		{
			name: "used only inside its package",
			files: map[string]string{
				"internal/a/a.go": `package a
func Helper() int { return 1 }
func Run() int { return Helper() }`,
				"cmd/x/main.go": `package main
import "m/internal/a"
func main() { _ = a.Run() }`,
			},
			want: []string{"a.Helper"},
		},
		{
			name: "json-tagged field, String method, type reached from a used signature",
			files: map[string]string{
				"internal/a/a.go": `package a
type Kind int
func (k Kind) String() string { return "k" }
type Result struct {
	Kind  Kind   ` + "`json:\"kind\"`" + `
	Count int
	Extra int
}
func Run() *Result { return &Result{} }`,
				"cmd/x/main.go": `package main
import (
	"fmt"
	"m/internal/a"
)
func main() { fmt.Println(a.Run().Count) }`,
			},
			// Result and Kind are reached from Run; Kind is tagged; String
			// makes Kind a fmt.Stringer. Extra is none of those.
			want: []string{"a.Result.Extra"},
		},
		{
			name: "a reference from a second module is a use",
			files: map[string]string{
				"internal/a/a.go": `package a
func Bench() int { return 2 }
func Unused() int { return 3 }`,
				"bench/go.mod": "module m/bench\n\ngo 1.22\n",
				"bench/main.go": `package main
import "m/internal/a"
func main() { _ = a.Bench() }`,
			},
			want: []string{"a.Unused"},
		},
		{
			name: "a struct conversion uses every field of the other package's side",
			files: map[string]string{
				"internal/a/a.go": `package a
type Cell struct{ Acts, Cost int }
func Cells() []Cell { return nil }`,
				"internal/b/b.go": `package b
import "m/internal/a"
type Totals struct{ Acts, Cost int }
func Sum() (t Totals) {
	for _, c := range a.Cells() {
		t.Acts += Totals(c).Acts
	}
	return t
}`,
				"cmd/x/main.go": `package main
import "m/internal/b"
func main() { _ = b.Sum() }`,
			},
			// Cell's fields are read by b's conversion; Totals is b's own,
			// and nothing outside b reads its fields.
			want: []string{"b.Totals.Acts", "b.Totals.Cost"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			tc.files["go.mod"] = gomod
			for name, src := range tc.files {
				p := filepath.Join(root, filepath.FromSlash(name))
				if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			tr, err := loadTree(root)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.check(); err != nil {
				t.Fatal(err)
			}
			if _, got := tr.candidates("m/internal"); !slices.Equal(got, tc.want) {
				t.Errorf("candidates = %q, want %q", got, tc.want)
			}
		})
	}
}
