package load

import (
	"go/ast"
	"go/types"
	"testing"
)

// TestLoadRealPackage type-checks a real module package end to end and
// spot-checks that syntax, type info, and imported package data line up.
func TestLoadRealPackage(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./internal/lock")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.Path != "atomio/internal/lock" || p.Name != "lock" {
		t.Fatalf("got %s (%s)", p.Path, p.Name)
	}
	if len(p.Files) == 0 {
		t.Fatal("no files parsed")
	}
	// The type of a selector on an imported type must resolve through
	// export data: find any sim.VTime-typed selector.
	sawVTime := false
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			tv, ok := p.Info.Types[sel]
			if !ok {
				return true
			}
			if named, ok := tv.Type.(*types.Named); ok {
				obj := named.Obj()
				if obj.Pkg() != nil && obj.Pkg().Path() == "atomio/internal/sim" && obj.Name() == "VTime" {
					sawVTime = true
				}
			}
			return true
		})
	}
	if !sawVTime {
		t.Error("no sim.VTime selector resolved; export-data importing is broken")
	}
}

// TestLoadBuildTaggedPackage loads the edge-case module's tagged package
// in the default (cgo-free) build context: `go list` selects only the
// pure-Go file, so the loader must parse exactly that one and never see
// the tag-gated `import "C"` twin — a directory glob would choke on it.
func TestLoadBuildTaggedPackage(t *testing.T) {
	pkgs, err := Load("testdata/edgemod", "./tagged")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if len(p.Files) != 1 {
		t.Fatalf("got %d files, want 1 (only the active build-tag variant)", len(p.Files))
	}
	backend := p.Types.Scope().Lookup("Backend")
	if backend == nil {
		t.Fatal("const Backend not type-checked")
	}
	c, ok := backend.(*types.Const)
	if !ok || c.Val().String() != `"pure-go"` {
		t.Fatalf("Backend = %v, want the pure-go variant", backend)
	}
}

// TestLoadSkipsTestOnlyPackage pins that a directory with only _test.go
// files — listed by `go list` with an empty GoFiles — is skipped instead
// of producing a degenerate zero-file package.
func TestLoadSkipsTestOnlyPackage(t *testing.T) {
	pkgs, err := Load("testdata/edgemod", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1 (testonly must be skipped)", len(pkgs))
	}
	if pkgs[0].Path != "edgemod/tagged" {
		t.Fatalf("got %s, want edgemod/tagged", pkgs[0].Path)
	}
}

// TestLoadManyPackages loads several packages in one call and checks the
// shared FileSet invariant.
func TestLoadManyPackages(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./internal/sim", "./internal/interval/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 3 {
		t.Fatalf("got %d packages, want 3", len(pkgs))
	}
	for _, p := range pkgs[1:] {
		if p.Fset != pkgs[0].Fset {
			t.Fatal("packages from one Load call must share a FileSet")
		}
	}
}
