package lib_test

import (
	"sync/atomic"
	"testing"

	"fixture/internal/lib"
)

// TestExternal is analysed like any other file: the suite flags its banned
// atomic call, and judges its directive stale. Its call of lib.TestOnly
// does not count as a reader.
func TestExternal(t *testing.T) {
	var n int64
	atomic.AddInt64(&n, 1) // want `call to atomic\.AddInt64`
	//memexvet:ignore lockiter no lock is held here, so the directive is stale // want `stale //memexvet:ignore: no lockiter finding`
	lib.TestOnly()
}
