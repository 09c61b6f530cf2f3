// Package lib is the fixture for the reader check: every export declared
// here needs a non-test reader outside bench/, and the want comments mark
// the ones that have none.
package lib

import "fmt"

// Read is read by cmd/tool.
func Read() {}

// Unread has no reader at all.
func Unread() {} // want `exported func fixture/internal/lib\.Unread has no reader`

// TestOnly is read only by lib_test.go, which is not a reader.
func TestOnly() {} // want `exported func fixture/internal/lib\.TestOnly has no reader`

// BenchOnly is read only by bench/, which is not a reader.
func BenchOnly() {} // want `exported func fixture/internal/lib\.BenchOnly has no reader`

// BenchWaits is read only by bench/ too, and says so.
//
//memexvet:ignore reader read only by bench/bench.go until the fixture's ladder moves off it
func BenchWaits() {}

// Stale carries a directive although cmd/tool reads it.
//
//memexvet:ignore reader cmd/tool reads this, so the directive is stale // want `stale //memexvet:ignore: no reader finding`
func Stale() {}

// Malformed has a reader; its directive gives no reason.
func Malformed() {} /*memexvet:ignore reader*/ // want `malformed //memexvet:ignore reader: missing reason`

// Orphan is a type nothing refers to.
type Orphan struct{} // want `exported type fixture/internal/lib\.Orphan has no reader`

// Limit is a constant nothing refers to.
const Limit = 3 // want `exported const fixture/internal/lib\.Limit has no reader`

// Default is a variable nothing refers to.
var Default = "none" // want `exported var fixture/internal/lib\.Default has no reader`

// Sortable is handed to sort.Sort, so its Len, Less and Swap are read
// through sort.Interface.
type Sortable []int

func (s Sortable) Len() int           { return len(s) }
func (s Sortable) Less(i, j int) bool { return s[i] < s[j] }
func (s Sortable) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// String is read wherever fmt prints a Sortable.
func (s Sortable) String() string { return fmt.Sprint([]int(s)) }

// Sum satisfies no interface the module uses, and nothing calls it.
func (s Sortable) Sum() int { // want `exported method fixture/internal/lib\.Sortable\.Sum has no reader`
	n := 0
	for _, v := range s {
		n += v
	}
	return n
}
