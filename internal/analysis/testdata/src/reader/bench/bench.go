// Package bench stands for the module's benchmark: what it reads does not
// count as read.
package bench

import "fixture/internal/lib"

// Run reads two exports nothing else reads.
func Run() {
	lib.BenchOnly()
	lib.BenchWaits()
}
