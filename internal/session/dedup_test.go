package session

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// repoRoot is the module root as seen from this package's directory.
var repoRoot = filepath.Join("..", "..")

// parseDir parses the non-test Go files directly in dir (a slash path
// from the module root), keyed by that path.
func parseDir(t *testing.T, dir string) map[string]*ast.File {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(repoRoot, filepath.FromSlash(dir)))
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]*ast.File{}
	fset := token.NewFileSet()
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(repoRoot, filepath.FromSlash(dir), name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files[dir+"/"+name] = f
	}
	return files
}

// TestSharedConstantsDeclaredOnce is the dedup guard for the session
// extraction: the wire-level constants that used to be copy-pasted into
// every transport (capsule flag bits, poll-miss cost, host NQN default,
// the reserved Connect CID) must have exactly one declaration across the
// engine and the two bindings — in this package. A second declaration
// anywhere in internal/{core,rdma} means the duplication crept back.
func TestSharedConstantsDeclaredOnce(t *testing.T) {
	shared := []string{"CmdFlagSHMSlot", "PollMissCPU", "DefaultHostNQN", "ConnectCID"}
	// Case-insensitive match also catches a reintroduced unexported twin
	// (pollMissCPU, connectCID, ...) in a binding package.
	want := make(map[string]string, len(shared))
	for _, name := range shared {
		want[strings.ToLower(name)] = name
	}

	decls := map[string][]string{} // canonical name -> declaration sites
	for _, dir := range []string{"internal/session", "internal/core", "internal/rdma"} {
		for path, f := range parseDir(t, dir) {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || (gd.Tok != token.CONST && gd.Tok != token.VAR) {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, id := range vs.Names {
						if canon, hit := want[strings.ToLower(id.Name)]; hit {
							decls[canon] = append(decls[canon], path)
						}
					}
				}
			}
		}
	}

	for _, name := range shared {
		sites := decls[name]
		if len(sites) != 1 {
			t.Errorf("%s declared %d times (%v), want exactly 1", name, len(sites), sites)
			continue
		}
		if !strings.HasPrefix(sites[0], "internal/session/") {
			t.Errorf("%s declared in %s, want internal/session", name, sites[0])
		}
	}
}

// structFields returns the named fields and the embedded type names of
// the struct type called name in files.
func structFields(files map[string]*ast.File, name string) (named, embedded []string) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != name {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return false
			}
			for _, fld := range st.Fields.List {
				for _, id := range fld.Names {
					named = append(named, id.Name)
				}
				if len(fld.Names) == 0 {
					if sel, ok := fld.Type.(*ast.SelectorExpr); ok {
						embedded = append(embedded, sel.Sel.Name)
					}
				}
			}
			return false
		})
	}
	return named, embedded
}

// TestConnectionOptionsDeclaredOnce keeps what a caller says about a
// connection in one place: every binding's ClientConfig embeds
// ConnOptions and every ServerConfig embeds ServeOptions, and neither
// declares a field the embedded struct already has (nor the Host cost
// model, which each binding reads from the model itself). A mirrored
// field is how the bindings' option handling drifted apart before.
func TestConnectionOptionsDeclaredOnce(t *testing.T) {
	own := parseDir(t, "internal/session")
	for _, pair := range [][2]string{{"ClientConfig", "ConnOptions"}, {"ServerConfig", "ServeOptions"}} {
		cfg, opts := pair[0], pair[1]
		common, _ := structFields(own, opts)
		if len(common) == 0 {
			t.Fatalf("session.%s has no fields: the guard is looking at the wrong type", opts)
		}
		taken := map[string]bool{"Host": true}
		for _, name := range common {
			taken[name] = true
		}
		for _, dir := range []string{"internal/core", "internal/rdma"} {
			named, embedded := structFields(parseDir(t, dir), cfg)
			if len(embedded) != 1 || embedded[0] != opts {
				t.Errorf("%s.%s embeds %v, want exactly session.%s", dir, cfg, embedded, opts)
			}
			for _, name := range named {
				if taken[name] {
					t.Errorf("%s.%s declares %s, which session.%s owns", dir, cfg, name, opts)
				}
			}
		}
	}
}

// TestBindingsNamedOnlyByDial keeps "open a connection on fabric X"
// written once: outside the bindings themselves only internal/dial may
// call a binding's Connect or NewServer, and the experiment harness and
// the public API must not import the rdma binding at all (they keep
// internal/core for designs, regions and the fabric registry).
func TestBindingsNamedOnlyByDial(t *testing.T) {
	const mod = "nvmeoaf/internal/"
	allowed := map[string]bool{"internal/dial": true, "internal/core": true, "internal/rdma": true}
	err := filepath.WalkDir(repoRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if strings.HasPrefix(d.Name(), ".") && path != repoRoot {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(repoRoot, path)
		dir := filepath.ToSlash(rel)
		for file, f := range parseDir(t, dir) {
			// Local names under which this file imports a binding.
			bound := map[string]string{}
			for _, imp := range f.Imports {
				ipath := strings.Trim(imp.Path.Value, `"`)
				for _, b := range []string{"core", "rdma"} {
					if ipath != mod+b {
						continue
					}
					local := b
					if imp.Name != nil {
						local = imp.Name.Name
					}
					bound[local] = b
					if b != "core" && (dir == "internal/exp" || dir == "oaf") {
						t.Errorf("%s imports %s: builders reach bindings through internal/dial", file, ipath)
					}
				}
			}
			if allowed[dir] {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Connect" && sel.Sel.Name != "NewServer") {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && bound[x.Name] != "" {
					t.Errorf("%s calls %s.%s: only internal/dial opens connections by binding", file, bound[x.Name], sel.Sel.Name)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// walkSource calls fn for every non-test Go file of the module outside
// hidden directories and the separate bench module, with its directory
// (a slash path from the module root).
func walkSource(t *testing.T, fn func(dir, file string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(repoRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(repoRoot, path)
		dir := filepath.ToSlash(rel)
		if (strings.HasPrefix(d.Name(), ".") && path != repoRoot) || dir == "bench" {
			return filepath.SkipDir
		}
		for file, f := range parseDir(t, dir) {
			fn(dir, file, f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// importName is the local name under which f imports internal/<pkg>, ""
// when it does not.
func importName(f *ast.File, pkg string) string {
	for _, imp := range f.Imports {
		if strings.Trim(imp.Path.Value, `"`) != "nvmeoaf/internal/"+pkg {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return pkg
	}
	return ""
}

// calls reports whether n contains a call of local.name.
func calls(n ast.Node, local, name string) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == name {
				x, ok := sel.X.(*ast.Ident)
				found = found || (ok && x.Name == local)
			}
		}
		return !found
	})
	return found
}

// TestWorldsBuiltOnlyByWorld keeps "build a world" written once: outside
// internal/world (and the separate bench module) no non-test code makes
// an engine, a target, a NIC or an SSD. A builder that needs another
// machine shape or service asks internal/world for it, so the locality
// rule and the RNG stream names stay in one place.
func TestWorldsBuiltOnlyByWorld(t *testing.T) {
	ctors := map[string]string{"sim": "NewEngine", "target": "New", "netsim": "NewNIC", "bdev": "NewSimSSD"}
	walkSource(t, func(dir, file string, f *ast.File) {
		if dir == "internal/world" {
			return
		}
		for pkg, ctor := range ctors {
			if local := importName(f, pkg); local != "" && calls(f, local, ctor) {
				t.Errorf("%s calls %s.%s: worlds are built by internal/world", file, local, ctor)
			}
		}
	})
}

// TestShapersBuiltOnlyByQoS keeps the QoS enforcement points in one
// place: outside internal/qos no non-test code calls qos.NewShaper. A
// builder asks its tenant registry for a point by label
// (qos.Registry.Shaper), so the registry sees every point when it
// merges stats and checks token conservation.
func TestShapersBuiltOnlyByQoS(t *testing.T) {
	walkSource(t, func(dir, file string, f *ast.File) {
		if dir == "internal/qos" {
			return
		}
		if local := importName(f, "qos"); local != "" && calls(f, local, "NewShaper") {
			t.Errorf("%s calls %s.NewShaper: enforcement points come from qos.Registry.Shaper", file, local)
		}
	})
}

// TestClusterMembersFailFast keeps the replica members' fail-fast
// options in internal/cluster: every function outside it that calls
// cluster.New also fills its member connections through
// cluster.FailFast, so no builder carries its own copy of the member
// time-out (the value a namespace's stale-completion window depends
// on).
func TestClusterMembersFailFast(t *testing.T) {
	builders := 0
	walkSource(t, func(dir, file string, f *ast.File) {
		local := importName(f, "cluster")
		if dir == "internal/cluster" || local == "" {
			return
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !calls(fd.Body, local, "New") {
				continue
			}
			builders++
			if !calls(fd.Body, local, "FailFast") {
				t.Errorf("%s: %s calls %s.New without taking its member options from %s.FailFast", file, fd.Name.Name, local, local)
			}
		}
	})
	if builders == 0 {
		t.Error("found no cluster.New call outside internal/cluster: the guard is looking at the wrong name")
	}
}

// TestOAFEnumsAreAliases keeps the public vocabulary with its owners:
// package oaf declares no defined type over a basic type. A fabric,
// design, cache mode or SLO tier is an alias of the type the owning
// package declares (dial.Kind, core.Design, cache.Mode, qos.SLO), so
// each name and each zero-value rule is written once and oaf carries no
// translation table to keep in step.
func TestOAFEnumsAreAliases(t *testing.T) {
	basic := map[string]bool{
		"bool": true, "string": true, "byte": true, "rune": true, "uintptr": true,
		"int": true, "int8": true, "int16": true, "int32": true, "int64": true,
		"uint": true, "uint8": true, "uint16": true, "uint32": true, "uint64": true,
		"float32": true, "float64": true, "complex64": true, "complex128": true,
	}
	files := 0
	walkSource(t, func(dir, file string, f *ast.File) {
		if dir != "oaf" {
			return
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Assign.IsValid() {
				return true
			}
			if id, ok := ts.Type.(*ast.Ident); ok && basic[id.Name] {
				t.Errorf("%s: type %s %s mirrors an owner's enum: declare it as an alias of the owning package's type", file, ts.Name.Name, id.Name)
			}
			return true
		})
	})
	if files == 0 {
		t.Error("found no source in oaf: the guard is looking at the wrong directory")
	}
}
