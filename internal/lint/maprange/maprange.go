// Package maprange implements the gdrlint analyzer that flags `range` over
// a map whose iteration can reach an ordered output — a slice accumulated
// across iterations, an io.Writer/encoder, or a string built up per key —
// without the enclosing function restoring a deterministic order
// afterwards. Go randomizes map iteration order on purpose, so this is
// exactly the bug class that silently breaks the library's byte-identical
// output guarantee (suggestion lists, CSV exports, snapshots).
//
// The check is a heuristic with deliberately scoped sinks:
//
//   - append whose target is declared outside the loop (the slice
//     accumulates keys/values in iteration order);
//   - `+=` onto a string declared outside the loop;
//   - calls to fmt.Print*/Fprint* or to Write/WriteString/WriteByte/
//     WriteRune/WriteRow/Encode methods on a value from outside the loop.
//
// Aggregations that are order-free — counting, integer sums, building
// another map, per-key work on values — are not sinks. A `sort` or
// `slices.Sort*` call after the loop in the same function counts as
// restoring order and silences the finding (the collect-then-sort idiom).
//
// Floating-point accumulation is the exception: `+=` or `-=` onto a float
// declared outside the loop depends on iteration order in its last bits
// (float addition is not associative), and no later sort can undo that, so
// it is reported regardless. A keyed target (`m[k] += x`) gets one
// addition per key and stays clean.
package maprange

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"gdr/internal/lint/analysis"
)

// Analyzer is the maprange check.
var Analyzer = &analysis.Analyzer{
	Name: "maprange",
	Doc: "flag map iteration whose order can reach a returned slice, writer, " +
		"encoder or built-up string without an intervening sort — map order " +
		"is randomized and breaks the byte-identical-output invariant",
	Run: run,
}

// sinkMethods are method names that emit data in call order.
var sinkMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"WriteRow": true, "Encode": true,
}

func run(pass *analysis.Pass) (any, error) {
	analysis.WithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, ok := t.Underlying().(*types.Map); !ok {
			return true
		}
		if floatSum(pass, rs) {
			pass.Reportf(rs.For,
				"map iteration order reaches a float accumulated across iterations; float addition is not associative, so iterate in sorted key order (byte-identical-output invariant)")
			return true
		}
		sink := findSink(pass, rs)
		if sink == "" {
			return true
		}
		if enclosing := analysis.EnclosingFunc(stack); enclosing != nil && sortedAfter(pass, enclosing, rs) {
			return true
		}
		pass.Reportf(rs.For,
			"map iteration order reaches %s without a deterministic sort; collect and sort keys first, or sort the result before it escapes (byte-identical-output invariant)",
			sink)
		return true
	})
	return nil, nil
}

// findSink scans the loop body for an order-sensitive output and describes
// the first one found ("" means none).
func findSink(pass *analysis.Pass, rs *ast.RangeStmt) string {
	sink := ""
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.ADD_ASSIGN && len(st.Lhs) == 1 &&
				isStringType(pass, st.Lhs[0]) && declaredOutside(pass, st.Lhs[0], rs) {
				sink = "a string built across iterations"
				return false
			}
			for i, rhs := range st.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isAppend(pass, call) || i >= len(st.Lhs) {
					continue
				}
				if _, keyed := st.Lhs[i].(*ast.IndexExpr); keyed {
					continue // per-key slot: each key lands deterministically
				}
				if declaredOutside(pass, st.Lhs[i], rs) {
					sink = "a slice accumulated across iterations"
					return false
				}
			}
		case *ast.CallExpr:
			if desc := callSink(pass, st, rs); desc != "" {
				sink = desc
				return false
			}
		}
		return true
	})
	return sink
}

// floatSum reports whether the loop body adds to or subtracts from a float
// variable declared outside the loop (a keyed m[k] target is per-key).
func floatSum(pass *analysis.Pass, rs *ast.RangeStmt) bool {
	found := false
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		st, ok := n.(*ast.AssignStmt)
		if !ok || (st.Tok != token.ADD_ASSIGN && st.Tok != token.SUB_ASSIGN) || len(st.Lhs) != 1 {
			return true
		}
		if _, keyed := st.Lhs[0].(*ast.IndexExpr); keyed {
			return true
		}
		found = isFloatType(pass, st.Lhs[0]) && declaredOutside(pass, st.Lhs[0], rs)
		return !found
	})
	return found
}

// callSink reports whether a call inside the loop emits to an ordered
// output living outside the loop.
func callSink(pass *analysis.Pass, call *ast.CallExpr, rs *ast.RangeStmt) string {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil {
		return ""
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
		(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
		return "an io.Writer via fmt." + fn.Name()
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !sinkMethods[fn.Name()] {
		return ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	// A writer constructed inside the loop (fresh buffer per iteration) is
	// order-free; one from outside accumulates in iteration order. A
	// receiver with no root identifier (a call-chain like
	// json.NewEncoder(w).Encode) is treated as escaping — conservatively.
	if root := analysis.RootIdent(sel.X); root == nil || declaredOutside(pass, sel.X, rs) {
		return "a writer or encoder via " + fn.Name()
	}
	return ""
}

// isAppend reports whether call invokes the append builtin.
func isAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

func isStringType(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

func isFloatType(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}

// declaredOutside reports whether the root identifier of e names an object
// declared outside the range statement (so writes to it survive the loop).
func declaredOutside(pass *analysis.Pass, e ast.Expr, rs *ast.RangeStmt) bool {
	root := analysis.RootIdent(e)
	if root == nil {
		return false
	}
	obj := pass.TypesInfo.Uses[root]
	if obj == nil {
		obj = pass.TypesInfo.Defs[root]
	}
	if obj == nil {
		return false
	}
	return obj.Pos() < rs.Pos() || obj.Pos() >= rs.End()
}

// sortedAfter reports whether the function enclosing rs re-establishes a
// deterministic order after the loop: any call into package sort, or a
// slices.Sort* call, or a .Sort() method call, positioned after the loop.
func sortedAfter(pass *analysis.Pass, enclosing ast.Node, rs *ast.RangeStmt) bool {
	body := analysis.FuncBody(enclosing)
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		fn := analysis.Callee(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		switch {
		case fn.Pkg() != nil && fn.Pkg().Path() == "sort":
			found = true
		case fn.Pkg() != nil && fn.Pkg().Path() == "slices" && strings.HasPrefix(fn.Name(), "Sort"):
			found = true
		case fn.Name() == "Sort":
			found = true
		}
		return !found
	})
	return found
}
