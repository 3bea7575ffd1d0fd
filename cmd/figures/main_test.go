package main

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
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
	for _, name := range []string{"table1", "2", "3", "8", "9", "10", "11", "12", "13", "14", "15", "16", "17", "18", "19"} {
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
}

// TestOnlyTheRunnerRuns: in internal/figures and cmd/figures, tests
// included, only a method of figures.Runner names exp.Run, exp.RunH5 or
// exp.RunH5Scale, so every run goes through the runner's memo of
// documents it has run.
func TestOnlyTheRunnerRuns(t *testing.T) {
	runs := map[string]bool{"Run": true, "RunH5": true, "RunH5Scale": true}
	inRunner := 0
	fset := token.NewFileSet()
	for _, dir := range []string{filepath.Join("..", "..", "internal", "figures"), "."} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range entries {
			if !strings.HasSuffix(ent.Name(), ".go") {
				continue
			}
			path := filepath.Join(dir, ent.Name())
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			local := ""
			for _, imp := range f.Imports {
				if imp.Path.Value == `"nvmeoaf/internal/exp"` {
					local = "exp"
					if imp.Name != nil {
						local = imp.Name.Name
					}
				}
			}
			if local == "" {
				continue
			}
			for _, decl := range f.Decls {
				runner := false
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
					typ := fd.Recv.List[0].Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					id, ok := typ.(*ast.Ident)
					runner = ok && id.Name == "Runner"
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok || !runs[sel.Sel.Name] {
						return true
					}
					if x, ok := sel.X.(*ast.Ident); !ok || x.Name != local {
						return true
					}
					if runner {
						inRunner++
					} else {
						t.Errorf("%s: exp.%s outside the Runner", fset.Position(sel.Pos()), sel.Sel.Name)
					}
					return true
				})
			}
		}
	}
	if inRunner < len(runs) {
		t.Errorf("the Runner names %d run functions, want %d: the guard is looking at the wrong code", inRunner, len(runs))
	}
}
