package analysis

import (
	"go/ast"
	"go/types"
)

// AtomicBan forbids sync/atomic's package-level functions (AddUint64,
// LoadInt64, StoreUint32, CompareAndSwapPointer, …), every one of which
// takes a pointer to an ordinary variable and so leaves that variable open
// to a plain `s.n++` two lines away — the torn-counter race PR 8's first
// metrics draft shipped. The typed wrappers (atomic.Uint64, atomic.Int64,
// atomic.Bool, atomic.Pointer[T], atomic.Value) make plain access a
// compile error instead, so they are the only spelling: with none of the
// functions called, no variable can be accessed both ways, and there is
// nothing left for a mixed-access analysis to find.
var AtomicBan = &Analyzer{
	Name: "atomicban",
	Doc: "check that no sync/atomic package-level function is called: " +
		"use the typed wrappers (atomic.Uint64, atomic.Int64, …), which cannot be accessed plainly",
	Run: runAtomicBan,
}

func runAtomicBan(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			// The wrappers' methods have a receiver; the banned functions do not.
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
				pass.Reportf(call.Pos(),
					"call to atomic.%s: the pointer-taking sync/atomic functions are banned; give the variable a typed wrapper (atomic.Uint64, atomic.Int64, atomic.Pointer[T], …) so it cannot also be accessed plainly",
					fn.Name())
			}
			return true
		})
	}
	return nil
}
