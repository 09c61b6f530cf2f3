package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// EpochBatch enforces the torn-publish invariant: all derived records for
// one page — term counts (tf/), out-links (lnk/), in-links (rin/) — must be
// staged into a single version-store Batch, so one atomic Publish installs
// them in one epoch. Split across batches, a snapshot taken between the
// publishes observes a page's text without its place in the link graph (or
// vice versa), the exact hole PR 2's out-of-order-publish fix and PR 4's
// same-batch adjacency publish closed.
//
// Two shapes are flagged: derived records for the same page staged into
// two different batch variables within one function, and staging into a
// batch after its Publish or Abort.
var EpochBatch = &Analyzer{
	Name: "epochbatch",
	Doc: "check that a page's derived records (tf/, lnk/, rin/) are staged into one Batch " +
		"and that no batch is used after Publish/Abort",
	Run: runEpochBatch,
}

func runEpochBatch(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkDerivedSplit(pass, fn.Body)
			checkUseAfterFinish(pass, fn.Body)
		}
	}
	return nil
}

// derivedPut is one b.Put(...) of a derived record.
type derivedPut struct {
	batch  string // textual batch expression
	family string // "tf", "lnk", "rin"
	page   string // textual page expression
	call   *ast.CallExpr
}

// checkDerivedSplit flags derived records for one page staged into more
// than one batch in the same function.
func checkDerivedSplit(pass *Pass, body *ast.BlockStmt) {
	var puts []derivedPut
	ast.Inspect(body, func(n ast.Node) bool {
		recv, name, call, ok := methodCall(n)
		if !ok || name != "Put" || len(call.Args) < 1 || !isBatchExpr(pass, recv) {
			return true
		}
		family, page, ok := derivedKey(call.Args[0])
		if !ok {
			return true
		}
		puts = append(puts, derivedPut{
			batch:  types.ExprString(recv),
			family: family,
			page:   page,
			call:   call,
		})
		return true
	})

	firstBatch := make(map[string]derivedPut) // page → first staging
	for _, p := range puts {
		prev, seen := firstBatch[p.page]
		if !seen {
			firstBatch[p.page] = p
			continue
		}
		if prev.batch != p.batch {
			pass.Reportf(p.call.Pos(),
				"derived %s/ record for page %s staged into %s, but its %s/ record went into %s: all derived records for one page must publish in a single batch",
				p.family, p.page, p.batch, prev.family, prev.batch)
		}
	}
}

// checkUseAfterFinish flags staging into a batch after Publish/Abort in
// the same statement list. Deferred calls are excluded (defer b.Abort()
// as a panic guard is the publish path's own idiom), as are goroutine
// bodies; rebinding the variable to a fresh batch clears its state.
func checkUseAfterFinish(pass *Pass, body *ast.BlockStmt) {
	for _, list := range stmtLists(body) {
		finished := make(map[string]string) // batch expr → "Publish"/"Abort"
		for _, stmt := range list {
			// A statement that rebinds the variable (b := s.Begin() inside
			// a loop body) holds a fresh batch: forget the old fate first.
			inspectLive(stmt, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok {
					for _, lhs := range as.Lhs {
						delete(finished, types.ExprString(lhs))
					}
				}
				return true
			})
			// Staging checked before finishing so `b.Put(..); b.Publish()`
			// in one statement list stays legal even via compound stmts.
			inspectLive(stmt, func(n ast.Node) bool {
				recv, name, call, ok := methodCall(n)
				if !ok || !isBatchExpr(pass, recv) {
					return true
				}
				key := types.ExprString(recv)
				switch name {
				case "Put", "Delete":
					if how, done := finished[key]; done {
						pass.Reportf(call.Pos(), "%s.%s after %s.%s: a finished batch must not be reused; begin a new batch",
							key, name, key, how)
					}
				}
				return true
			})
			inspectLive(stmt, func(n ast.Node) bool {
				recv, name, _, ok := methodCall(n)
				if !ok || !isBatchExpr(pass, recv) {
					return true
				}
				if name == "Publish" || name == "Abort" {
					finished[types.ExprString(recv)] = name
				}
				return true
			})
		}
	}
}

// inspectLive walks the subtree like ast.Inspect but skips deferred calls
// and goroutine bodies, which do not execute at their syntactic position.
func inspectLive(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m.(type) {
		case *ast.DeferStmt, *ast.GoStmt:
			return false
		}
		return f(m)
	})
}

// isBatchExpr reports whether e is a version-store batch: its type carries
// both Put and Publish methods.
func isBatchExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	return hasMethod(pass.Pkg, tv.Type, "Put") && hasMethod(pass.Pkg, tv.Type, "Publish")
}

// derivedKey classifies a Put key argument as one of the derived-record
// families, returning the family and a textual identity for the page.
func derivedKey(arg ast.Expr) (family, page string, ok bool) {
	switch a := arg.(type) {
	case *ast.CallExpr:
		var name string
		switch fun := a.Fun.(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		default:
			return "", "", false
		}
		fam, known := keyHelperFamily(name)
		if !known || len(a.Args) == 0 {
			return "", "", false
		}
		return fam, types.ExprString(a.Args[0]), true

	case *ast.BasicLit:
		if a.Kind.String() != "STRING" {
			return "", "", false
		}
		return literalFamily(a.Value)

	case *ast.BinaryExpr:
		// "tf/" + strconv.FormatInt(page, 10)
		lit, isLit := a.X.(*ast.BasicLit)
		if !isLit {
			return "", "", false
		}
		fam, _, known := literalFamily(lit.Value)
		if !known {
			return "", "", false
		}
		return fam, types.ExprString(a.Y), true
	}
	return "", "", false
}

func keyHelperFamily(name string) (string, bool) {
	switch name {
	case "tfKey":
		return "tf", true
	case "lnkKey":
		return "lnk", true
	case "rinKey":
		return "rin", true
	}
	return "", false
}

func literalFamily(quoted string) (family, page string, ok bool) {
	s := strings.Trim(quoted, "`\"")
	for _, fam := range []string{"tf", "lnk", "rin"} {
		if strings.HasPrefix(s, fam+"/") {
			return fam, strings.TrimPrefix(s, fam+"/"), true
		}
	}
	return "", "", false
}
