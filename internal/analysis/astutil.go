package analysis

import (
	"go/ast"
	"go/types"
)

// Small AST helpers shared by the analyzers.

// methodCall unpacks a call of the form recv.Name(...).
func methodCall(n ast.Node) (recv ast.Expr, name string, call *ast.CallExpr, ok bool) {
	c, isCall := n.(*ast.CallExpr)
	if !isCall {
		return nil, "", nil, false
	}
	sel, isSel := c.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", nil, false
	}
	return sel.X, sel.Sel.Name, c, true
}

// deref strips one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// hasMethod reports whether t (or *t) has a method called name.
func hasMethod(pkg *types.Package, t types.Type, name string) bool {
	if t == nil {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, pkg, name)
	_, isFunc := obj.(*types.Func)
	return isFunc
}

// stmtLists collects every statement list in the subtree rooted at n.
func stmtLists(n ast.Node) [][]ast.Stmt {
	var out [][]ast.Stmt
	ast.Inspect(n, func(n ast.Node) bool {
		switch b := n.(type) {
		case *ast.BlockStmt:
			out = append(out, b.List)
		case *ast.CaseClause:
			out = append(out, b.Body)
		case *ast.CommClause:
			out = append(out, b.Body)
		}
		return true
	})
	return out
}

// usedObject resolves an identifier to its object via Uses or Defs.
func usedObject(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// calleeFunc resolves the called function or method object, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := usedObject(info, id).(*types.Func)
	return fn
}
