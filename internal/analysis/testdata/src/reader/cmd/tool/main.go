// Command tool is the fixture's reader.
package main

import (
	"fmt"
	"sort"

	"fixture/internal/lib"
)

func main() {
	lib.Read()
	lib.Stale()
	lib.Malformed()
	s := lib.Sortable{3, 1, 2}
	sort.Sort(s)
	fmt.Println(s)
}
