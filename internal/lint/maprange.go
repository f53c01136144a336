package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapRangeAnalyzer flags map iterations whose order can leak into output
// (lint.All applies it module-wide). Go randomizes map iteration order per
// run, so a `for range m` that appends to an outer slice or writes to a
// stream produces run-dependent results — exactly the silent drift that made
// "misleading stars"-style topology artifacts so hard to attribute. A loop is
// exempt when it provably doesn't encode order: it exits on match
// (break/return), only mutates commutative state (counters, map entries,
// deletes), or the surrounding function sorts afterwards.
var MapRangeAnalyzer = &Analyzer{
	Name: "maprange",
	Doc: "flag map-iteration-order-dependent output in measurement code; " +
		"collect then sort, or range over a sorted key slice",
	Run: runMapRange,
}

func runMapRange(pass *Pass) error {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			sorts := callsSortAPI(fd.Body, info)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := info.Types[rng.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				if sorts || exitsEarly(rng.Body) {
					return true
				}
				if escape := orderEscapes(rng, info); escape != "" {
					pass.Reportf(rng.Pos(),
						"map iteration order escapes via %s; sort before emitting (map order is randomized per run)",
						escape)
				}
				return true
			})
		}
	}
	return nil
}

// exitsEarly reports whether the loop body can stop the iteration: a
// match-and-exit loop observes at most one element, so order doesn't order
// any output.
func exitsEarly(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ReturnStmt:
			found = true
		case *ast.BranchStmt:
			// break/goto leave the loop (unlabelled break counts; continue
			// doesn't).
			if s.Tok == token.BREAK || s.Tok == token.GOTO {
				found = true
			}
		case *ast.FuncLit:
			return false // a nested closure's returns don't exit our loop
		}
		return !found
	})
	return found
}

// callsSortAPI reports whether the function body calls into package sort or
// slices, or a local sorting helper (a function whose name starts with
// "sort", like core's sortAddrs) — the collect-then-sort idiom that makes
// map iteration safe.
func callsSortAPI(body *ast.BlockStmt, info *types.Info) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if obj, ok := info.Uses[x.Sel]; ok && obj.Pkg() != nil {
				switch obj.Pkg().Path() {
				case "sort", "slices":
					found = true
				}
			}
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && strings.HasPrefix(strings.ToLower(id.Name), "sort") {
				found = true
			}
		}
		return !found
	})
	return found
}

// orderEscapes reports how the loop body lets iteration order reach output:
// appending to a slice declared outside the loop, or writing to a stream.
// It returns "" when every statement is order-commutative.
func orderEscapes(rng *ast.RangeStmt, info *types.Info) string {
	escape := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if escape != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fn := call.Fun.(type) {
		case *ast.Ident:
			// Builtin append: the element order of some slice now follows
			// map order.
			if _, isBuiltin := info.Uses[fn].(*types.Builtin); isBuiltin && fn.Name == "append" {
				escape = "append"
			}
		case *ast.SelectorExpr:
			obj, ok := info.Uses[fn.Sel]
			if !ok || obj.Pkg() == nil {
				return true
			}
			name := fn.Sel.Name
			if obj.Pkg().Path() == "fmt" && (name == "Fprintf" || name == "Fprintln" || name == "Fprint") {
				escape = "fmt." + name
			}
			if name == "Write" || name == "WriteString" || name == "WriteByte" {
				if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
					escape = name
				}
			}
		}
		return escape == ""
	})
	return escape
}
