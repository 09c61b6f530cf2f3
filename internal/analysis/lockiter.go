package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockIter enforces the snapshot-then-work discipline on every sync.Mutex
// and sync.RWMutex in the tree (e.mu, Graph.mu, the version store's
// producer and fold locks, …): while a lock is held, a function must not run nested
// bulk iteration and must not call into blocking APIs (net, net/http,
// os/exec, time.Sleep, io.ReadAll/Copy). This is the PageRank bug class
// from PR 5 — a power loop under Graph.mu.RLock stalled every ingest
// publish behind a mining pass. Copy what you need under the lock, release
// it, then iterate.
//
// The analysis is intraprocedural and syntactic about loops: a helper
// function called under the lock is not descended into. Single-level loops
// under a lock (hash-map rebuilds, sort.Slice) are allowed; it is the
// quadratic shape — a loop within a loop — that turns a critical section
// into a stall.
var LockIter = &Analyzer{
	Name: "lockiter",
	Doc: "check that no nested iteration or blocking call (net/http/exec/sleep/io bulk reads) " +
		"runs while a sync mutex is held",
	Run: runLockIter,
}

var unlockNames = map[string]bool{"Unlock": true, "RUnlock": true}
var lockNames = map[string]bool{"Lock": true, "RLock": true}

func runLockIter(pass *Pass) error {
	for _, f := range pass.Files {
		// Every function — declared or literal — is analyzed as its own
		// scope: a closure's locks are its own business, not its
		// definer's.
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					walkHeld(pass, fn.Body.List, map[string]token.Pos{}, false)
				}
			case *ast.FuncLit:
				walkHeld(pass, fn.Body.List, map[string]token.Pos{}, false)
			}
			return true
		})
	}
	return nil
}

// walkHeld walks one statement list tracking which mutexes are held.
// Branch recursion takes a copy of the held set: an unlock inside a branch
// (typically before an early return) does not clear the lock for the
// statements after the branch.
func walkHeld(pass *Pass, list []ast.Stmt, held map[string]token.Pos, inFlaggedLoop bool) {
	for _, stmt := range list {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if key, name, ok := mutexOp(pass.TypesInfo, s.X); ok {
				if lockNames[name] {
					held[key] = s.Pos()
				} else {
					delete(held, key)
				}
				continue
			}
			if len(held) > 0 {
				checkBlockingCalls(pass, s, held)
			}

		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the lock held to the end of the
			// function, which is exactly what leaving it in the set
			// models. Deferred work itself runs after our region of
			// interest, so it is not scanned for blocking calls.
			continue

		case *ast.GoStmt:
			// The spawned goroutine does not inherit the caller's locks.
			continue

		case *ast.ForStmt:
			checkLoop(pass, s, s.Body, held, inFlaggedLoop)

		case *ast.RangeStmt:
			checkLoop(pass, s, s.Body, held, inFlaggedLoop)

		case *ast.IfStmt:
			if len(held) > 0 {
				if s.Init != nil {
					checkBlockingCalls(pass, s.Init, held)
				}
				checkBlockingCalls(pass, s.Cond, held)
			}
			walkHeld(pass, s.Body.List, copyHeld(held), inFlaggedLoop)
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				walkHeld(pass, e.List, copyHeld(held), inFlaggedLoop)
			case *ast.IfStmt:
				walkHeld(pass, []ast.Stmt{e}, copyHeld(held), inFlaggedLoop)
			}

		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			for _, l := range clauseBodies(s) {
				walkHeld(pass, l, copyHeld(held), inFlaggedLoop)
			}

		case *ast.BlockStmt:
			walkHeld(pass, s.List, held, inFlaggedLoop)

		case *ast.LabeledStmt:
			walkHeld(pass, []ast.Stmt{s.Stmt}, held, inFlaggedLoop)

		default:
			if len(held) > 0 {
				checkBlockingCalls(pass, stmt, held)
			}
		}
	}
}

// checkLoop handles a for/range statement encountered while locks may be
// held: flags loop-in-loop under a lock, then descends.
func checkLoop(pass *Pass, loop ast.Stmt, body *ast.BlockStmt, held map[string]token.Pos, inFlaggedLoop bool) {
	flagged := inFlaggedLoop
	if len(held) > 0 && !inFlaggedLoop && containsLoop(body) && !unlocksAny(pass.TypesInfo, body, held) {
		key, pos := oneHeld(held)
		pass.Reportf(loop.Pos(), "nested iteration while holding %s (locked at line %d): snapshot the data under the lock, release it, then iterate",
			key, pass.Fset.Position(pos).Line)
		flagged = true
	}
	walkHeld(pass, body.List, copyHeld(held), flagged)
}

// checkBlockingCalls scans a statement's expressions (including closures,
// which typically run inline under the lock) for calls into blocking APIs.
func checkBlockingCalls(pass *Pass, n ast.Node, held map[string]token.Pos) {
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := usedObject(pass.TypesInfo, sel.Sel).(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if why := blockingCall(fn.Pkg().Path(), fn.Name()); why != "" {
			key, pos := oneHeld(held)
			pass.Reportf(call.Pos(), "%s while holding %s (locked at line %d): blocking under a mutex stalls every other holder",
				why, key, pass.Fset.Position(pos).Line)
		}
		return true
	})
}

// blockingCall classifies a callee as blocking; the returned string is the
// diagnostic phrase ("" if not blocking).
func blockingCall(pkgPath, name string) string {
	switch pkgPath {
	case "net", "net/http", "net/rpc", "os/exec":
		return "call to " + pkgPath + "." + name
	case "time":
		if name == "Sleep" {
			return "call to time.Sleep"
		}
	case "io":
		switch name {
		case "ReadAll", "Copy", "CopyN", "CopyBuffer":
			return "call to io." + name
		}
	}
	return ""
}

// mutexOp recognizes lock/unlock calls on sync.Mutex / sync.RWMutex
// (including promoted methods of embedded mutexes) and returns a stable
// textual key for the lock expression.
func mutexOp(info *types.Info, n ast.Node) (key, name string, ok bool) {
	recv, name, call, ok := methodCall(n)
	if !ok || (!lockNames[name] && !unlockNames[name]) {
		return "", "", false
	}
	sel := call.Fun.(*ast.SelectorExpr)
	if s := info.Selections[sel]; s != nil {
		fn, isFn := s.Obj().(*types.Func)
		if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return "", "", false
		}
		return types.ExprString(recv), name, true
	}
	// No selection (e.g. qualified or untypeable): fall back to the
	// receiver's type.
	tv, found := info.Types[recv]
	if !found {
		return "", "", false
	}
	named, isNamed := deref(tv.Type).(*types.Named)
	if !isNamed {
		return "", "", false
	}
	o := named.Obj()
	if o.Pkg() == nil || o.Pkg().Path() != "sync" || (o.Name() != "Mutex" && o.Name() != "RWMutex") {
		return "", "", false
	}
	return types.ExprString(recv), name, true
}

// containsLoop reports whether the subtree holds any for/range statement
// that would run inline. Goroutine bodies are skipped: a spawned goroutine
// does not iterate under the caller's lock.
func containsLoop(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		switch m.(type) {
		case *ast.GoStmt:
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			found = true
		}
		return !found
	})
	return found
}

// unlocksAny reports whether the subtree releases one of the held locks.
func unlocksAny(info *types.Info, n ast.Node, held map[string]token.Pos) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if key, name, ok := mutexOp(info, m); ok && unlockNames[name] {
			if _, h := held[key]; h {
				found = true
			}
		}
		return !found
	})
	return found
}

func copyHeld(held map[string]token.Pos) map[string]token.Pos {
	cp := make(map[string]token.Pos, len(held))
	for k, v := range held {
		cp[k] = v
	}
	return cp
}

// oneHeld picks the deterministically-first held lock for the diagnostic.
func oneHeld(held map[string]token.Pos) (string, token.Pos) {
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	k := keys[0]
	return k, held[k]
}

func clauseBodies(s ast.Stmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	var body *ast.BlockStmt
	switch sw := s.(type) {
	case *ast.SwitchStmt:
		body = sw.Body
	case *ast.TypeSwitchStmt:
		body = sw.Body
	case *ast.SelectStmt:
		body = sw.Body
	}
	if body == nil {
		return nil
	}
	for _, c := range body.List {
		switch cc := c.(type) {
		case *ast.CaseClause:
			out = append(out, cc.Body)
		case *ast.CommClause:
			out = append(out, cc.Body)
		}
	}
	return out
}
