package qclique

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testSupport lists the exported functions and methods under internal/
// that only tests call, and that stay exported because the tests of
// several packages share them. Each value names those tests. An entry's
// doc comment must say that it is test support.
var testSupport = map[string]string{
	"core.PathWeight":   "core: TestPathOracleMatchesReconstructPath, TestReconstructPathValidatesWeights, TestReconstructPathZeroWeightCycle, TestPathWeightErrors; serve: TestHTTPEndToEnd, TestPathsBatch",
	"graph.BellmanFord": "graph: TestBellmanFordAgreesWithFloydWarshall, TestBellmanFordNegativeCycle; qclique: TestSolveSSSPPublic",
	"matrix.SnapUpInto": "matrix: TestSnapUpInto, TestSnapUpIntoRejects; distprod: TestGridProductMatchesSnappedExact",
}

// implicitMethods are method names that callers reach through an interface
// the standard library declares (fmt, errors), so a call site never names
// them.
var implicitMethods = map[string]bool{"Error": true, "Unwrap": true, "String": true}

// TestInternalExportsHaveProductionCallers fails on any exported function
// or method declared under internal/ that no non-test file of the
// repository references: the root package, cmd/, examples/, internal/ and
// the benchmark module. Such a declaration is test code living in the
// program; it belongs in the _test.go file of the package whose tests use
// it, or in testSupport when the tests of several packages share it.
//
// References are resolved syntactically. A package-level function counts
// as referenced when a non-test file names it through an import of its
// package, or bare from inside it. A method counts as referenced when any
// non-test file selects a method or field of that name on anything.
func TestInternalExportsHaveProductionCallers(t *testing.T) {
	const module = "qclique"
	type decl struct {
		name   string // e.g. "graph.BellmanFord" or "graph.(*Digraph).HasArc"
		key    string // import path + "." + name, for functions
		method string // the method name, for methods
		doc    string
		pos    token.Position
	}
	var decls []decl
	funcRefs := map[string]bool{}   // "qclique/internal/graph.BellmanFord"
	methodRefs := map[string]bool{} // "HasArc"

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		pkgPath := module
		if dir != "." {
			pkgPath += "/" + dir
		}
		imports := map[string]string{}
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
		}
		declNames := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fd.Name] = true
			if !strings.HasPrefix(dir, "internal/") || !fd.Name.IsExported() {
				continue
			}
			dc := decl{name: f.Name.Name + "." + fd.Name.Name, doc: fd.Doc.Text(), pos: fset.Position(fd.Pos())}
			if fd.Recv == nil {
				dc.key = pkgPath + "." + fd.Name.Name
			} else {
				dc.method = fd.Name.Name
				dc.name = f.Name.Name + "." + receiverName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, dc)
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				methodRefs[n.Sel.Name] = true
				if id, ok := n.X.(*ast.Ident); ok {
					if ip, ok := imports[id.Name]; ok {
						funcRefs[ip+"."+n.Sel.Name] = true
						return false
					}
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if !declNames[n] {
					funcRefs[pkgPath+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f, visit)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	seen := map[string]bool{}
	for _, d := range decls {
		referenced := funcRefs[d.key]
		if d.method != "" {
			referenced = methodRefs[d.method] || implicitMethods[d.method]
		}
		_, allowed := testSupport[d.name]
		seen[d.name] = true
		switch {
		case allowed && referenced:
			t.Errorf("%s: %s is listed as test support but a non-test file references it; drop it from testSupport", d.pos, d.name)
		case allowed && !strings.Contains(d.doc, "test support"):
			t.Errorf("%s: %s is listed as test support but its doc comment does not say so", d.pos, d.name)
		case !allowed && !referenced:
			t.Errorf("%s: %s is exported but only tests call it; move it into its package's _test.go file, delete it, or list it in testSupport", d.pos, d.name)
		}
	}
	var stale []string
	for name := range testSupport {
		if !seen[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("testSupport lists %s, which is not an exported declaration under internal/", name)
	}
}

// receiverName renders a method receiver type as "T" or "(*T)".
func receiverName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return "(*" + receiverName(e.X) + ")"
	case *ast.IndexExpr:
		return receiverName(e.X)
	case *ast.IndexListExpr:
		return receiverName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
