package tensor

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// hostMath are the math functions whose bits may depend on the host: amd64
// runs math.Exp in one of two sequences, as the CPU has FMA or not, the
// others call it or run Go code that other GOARCHes compile with fused
// multiply-adds, and s390x has assembly of its own for most of them.
var hostMath = map[string]bool{
	"Exp": true, "Log": true, "Log1p": true, "Tanh": true, "Pow": true, "Expm1": true,
	"Exp2": true, "Log2": true, "Log10": true, "Sinh": true, "Cosh": true,
}

// TestOneExpSource: no Go file of the module — internal/, cmd/, examples/
// and the root package, tests included — calls one of hostMath but
// transcendental.go, which holds the repository's Exp, Log and Log1p, and
// its test, which holds them to math's. The one exception is
// math.Pow(x, -0.5), which math computes as 1/Sqrt(x) and which hfl's tests
// hold the staleness weight to.
//
// rand.NormFloat64 is the residue: it calls math.Exp inside its ziggurat
// rejection test, but rounds the exp to float32 before the compare, so the
// FMA and the plain sequence draw the same normals (every pinned run agreed
// under both). Outside tests it stays in rng.go and dataset/.
func TestOneExpSource(t *testing.T) {
	root := filepath.Join("..", "..")
	var files []string
	for _, dir := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	top, err := filepath.Glob(filepath.Join(root, "*.go"))
	if err != nil || len(top) == 0 {
		t.Fatalf("no Go files at the module root: %v", err)
	}
	files = append(files, top...)

	fset := token.NewFileSet()
	for _, path := range files {
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		math := importName(f, "math")
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, _ := sel.X.(*ast.Ident)
			at := fset.Position(call.Pos())
			switch {
			case pkg != nil && pkg.Name == math && hostMath[sel.Sel.Name]:
				if strings.HasPrefix(rel, "internal/tensor/transcendental") || sel.Sel.Name == "Pow" && isMinusHalf(call.Args[1]) {
					return true
				}
				t.Errorf("%s:%d: math.%s: call tensor's own (or add it beside Exp in transcendental.go)", rel, at.Line, sel.Sel.Name)
			case sel.Sel.Name == "NormFloat64" && !strings.HasSuffix(rel, "_test.go") &&
				rel != "internal/tensor/rng.go" && !strings.HasPrefix(rel, "internal/dataset/"):
				t.Errorf("%s:%d: NormFloat64 outside tensor's RNG and dataset/", rel, at.Line)
			}
			return true
		})
	}
	if len(files) < 100 {
		t.Fatalf("walked only %d files: is the module root %s?", len(files), root)
	}
}

// importName returns the name f refers to the package at path by, or "" if
// f does not import it.
func importName(f *ast.File, path string) string {
	for _, im := range f.Imports {
		if p, _ := strconv.Unquote(im.Path.Value); p == path {
			if im.Name != nil {
				return im.Name.Name
			}
			return path[strings.LastIndex(path, "/")+1:]
		}
	}
	return ""
}

// isMinusHalf reports whether e is the literal −0.5.
func isMinusHalf(e ast.Expr) bool {
	u, ok := e.(*ast.UnaryExpr)
	if !ok || u.Op != token.SUB {
		return false
	}
	lit, ok := u.X.(*ast.BasicLit)
	return ok && lit.Kind == token.FLOAT && lit.Value == "0.5"
}
