package main

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	pathpkg "path"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"nvmeoaf/internal/figures"
)

// TestFigureNamesResolve: every name -fig documents selects one figure
// (3 prints Fig 2's, 12 Fig 11's), "all" selects every figure, each
// column is a row label or a Point field, and an unknown name is an
// error that exits 2 before anything runs.
func TestFigureNamesResolve(t *testing.T) {
	table := figures.Table(figures.Quick())
	shared := map[string]string{"3": "2", "12": "11"}
	ablations := []string{"incapsule", "coalesce", "shm-write", "regcache", "rdmactl", "streams"}
	for _, name := range append([]string{"table1", "2", "3", "8", "9", "10", "11", "12", "13", "14", "15", "16", "17", "18", "19"}, ablations...) {
		figs, err := figures.Select(table, name)
		if err != nil || len(figs) != 1 {
			t.Errorf("-fig %s: %d figures, %v", name, len(figs), err)
			continue
		}
		want := name
		if first, ok := shared[name]; ok {
			want = first
		}
		if got := figs[0].Names[0]; got != want {
			t.Errorf("-fig %s selected Fig %s, want Fig %s", name, got, want)
		}
	}
	if all, err := figures.Select(table, "all"); err != nil || len(all) != len(table) {
		t.Errorf("-fig all: %d of %d figures, %v", len(all), len(table), err)
	}
	if names := figures.Ablations(table); !slices.Equal(names, ablations) {
		t.Errorf("ablation figures %v, want %v", names, ablations)
	}
	if abl, err := figures.Select(table, "ablations"); err != nil || len(abl) != len(ablations) {
		t.Errorf("-fig ablations: %d figures, %v; want %d", len(abl), err, len(ablations))
	}

	point := reflect.TypeOf(figures.Point{})
	for _, f := range table {
		labels := 0
		for _, c := range f.Cols {
			if c.Field == "" {
				labels++
			} else if fld, ok := point.FieldByName(c.Field); !ok || fld.Type.Kind() != reflect.Float64 {
				t.Errorf("Fig %s: column %q names %q, not a Point field", f.Names[0], c.Head, c.Field)
			}
		}
		for _, r := range f.Rows {
			if len(r.Labels) != labels {
				t.Errorf("Fig %s: row %v has %d labels for %d label columns", f.Names[0], r.Labels, len(r.Labels), labels)
			}
		}
	}

	if _, err := figures.Select(table, "7"); err == nil {
		t.Error("-fig 7 selected a figure")
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-fig", "7"}, &out, &errOut); code != 2 || out.Len() != 0 {
		t.Errorf("-fig 7: exit %d with %d bytes of output, want exit 2 and none", code, out.Len())
	}
	for _, name := range ablations {
		if !strings.Contains(errOut.String(), name) {
			t.Errorf("-fig 7's error does not list %s:\n%s", name, errOut.String())
		}
	}
}

// runSite is one mention of exp.Run, exp.RunH5 or exp.RunH5Scale, called
// or not (inside package exp, the bare name): where it is and the
// top-level declaration it is in.
type runSite struct {
	pos token.Position
	in  decl
}

// decl is a top-level declaration of this module: its package directory
// and name. A method belongs to its receiver's type.
type decl [2]string

// scanModule parses every Go file of the root module, tests included and
// bench/'s own module not. It returns every run mention and, for each
// top-level declaration, the declarations it names: bare names of its own
// package (or a dot-imported one) and selectors on an imported package of
// this module. It matches names, not types, so a local that shadows a
// declaration counts as naming it.
func scanModule(t *testing.T) (sites []runSite, refs map[decl][]decl) {
	root := filepath.Join("..", "..")
	expDir := filepath.Join(root, "internal", "exp")
	refs = map[decl][]decl{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || path == root {
			return err
		}
		if d.IsDir() {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir // another module, or not Go source
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		imports := map[string]string{} // local name → directory, for this module's packages
		bare := []string{dir}          // the packages a bare name may be declared in
		for _, imp := range f.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			if ip != "nvmeoaf" && !strings.HasPrefix(ip, "nvmeoaf/") {
				continue
			}
			name, to := pathpkg.Base(ip), filepath.Join(root, strings.TrimPrefix(ip, "nvmeoaf"))
			if imp.Name != nil {
				name = imp.Name.Name
			}
			if name == "." {
				bare = append(bare, to)
			} else {
				imports[name] = to
			}
		}
		for _, d := range f.Decls {
			var in decl
			fd, _ := d.(*ast.FuncDecl)
			ref := func(to decl, at ast.Node) {
				if to[0] == expDir && (to[1] == "Run" || to[1] == "RunH5" || to[1] == "RunH5Scale") {
					sites = append(sites, runSite{fset.Position(at.Pos()), in})
				}
				refs[in] = append(refs[in], to)
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						ref(decl{imports[x.Name], n.Sel.Name}, n)
						return false
					}
					ast.Inspect(n.X, visit)
					return false // n.Sel is a field or method
				case *ast.Ident:
					if fd == nil || n != fd.Name {
						for _, b := range bare {
							ref(decl{b, n.Name}, n)
						}
					}
				}
				return true
			}
			switch d := d.(type) {
			case *ast.FuncDecl:
				in = decl{dir, d.Name.Name}
				if d.Recv != nil {
					in[1], _, _ = strings.Cut(strings.TrimPrefix(types.ExprString(d.Recv.List[0].Type), "*"), "[")
				}
				ast.Inspect(d, visit)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						in = decl{dir, s.Name.Name}
						ast.Inspect(s, visit)
					case *ast.ValueSpec:
						for _, name := range s.Names {
							in = decl{dir, name.Name}
							ast.Inspect(s, visit)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sites, refs
}

// TestOnlyTheRunnerRuns: in internal/figures and cmd/figures, tests
// included, only a method of figures.Runner names exp.Run, exp.RunH5 or
// exp.RunH5Scale, called or not, so every run goes through the runner's
// memo of documents it has run.
func TestOnlyTheRunnerRuns(t *testing.T) {
	sites, _ := scanModule(t)
	inRunner := 0
	for _, s := range sites {
		if s.in[0] != filepath.Join("..", "..", "internal", "figures") && s.in[0] != filepath.Join("..", "..", "cmd", "figures") {
			continue
		}
		if s.in[1] == "Runner" {
			inRunner++
		} else {
			t.Errorf("%s: an exp run outside the Runner", s.pos)
		}
	}
	if inRunner < 3 {
		t.Errorf("the Runner names %d run functions, want 3: the guard is looking at the wrong code", inRunner)
	}
}

// TestNoBenchmarkRunsAnExperiment: no Benchmark function in this module
// names a declaration that runs exp.Run, exp.RunH5 or exp.RunH5Scale, so
// the paper's numbers come from the figure table and the simulator's own
// cost from bench/run.sh. A declaration runs one if it names a run
// function or a declaration that does; a type runs one if one of its
// methods does, so a Benchmark holding a figures.Runner fails too.
func TestNoBenchmarkRunsAnExperiment(t *testing.T) {
	sites, refs := scanModule(t)
	runsExp := map[decl]bool{}
	for _, s := range sites {
		runsExp[s.in] = true
	}
	for changed := true; changed; {
		changed = false
		for d, to := range refs {
			if !runsExp[d] && slices.ContainsFunc(to, func(to decl) bool { return runsExp[to] }) {
				runsExp[d], changed = true, true
			}
		}
	}
	var bad []string
	for d := range runsExp {
		if strings.HasPrefix(d[1], "Benchmark") {
			bad = append(bad, filepath.Join(d[0], d[1]))
		}
	}
	slices.Sort(bad)
	for _, b := range bad {
		t.Errorf("%s runs an experiment: make it a figure row", b)
	}
	if !runsExp[decl{filepath.Join("..", "..", "internal", "figures"), "NewRunner"}] {
		t.Error("figures.NewRunner does not run an experiment: the guard is looking at the wrong code")
	}
}
