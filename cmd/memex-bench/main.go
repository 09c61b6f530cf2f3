// Command memex-bench regenerates every figure and falsifiable claim of
// the Memex paper as text tables (the per-experiment index is DESIGN.md
// §3).
//
// Usage:
//
//	memex-bench              # run all experiments E1..E10
//	memex-bench -exp E1      # run one experiment
//	memex-bench -seed 17     # change the world seed
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"memex/internal/experiments"
)

func main() {
	exp := flag.String("exp", "", "experiment id (E1..E10); empty = all")
	seed := flag.Int64("seed", 7, "world seed")
	flag.Parse()

	t0 := time.Now()
	if *exp != "" {
		r := experiments.ByID(*exp, *seed)
		if r == nil {
			fmt.Fprintf(os.Stderr, "memex-bench: unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		r.Print()
		return
	}
	for _, r := range experiments.All(*seed) {
		r.Print()
	}
	fmt.Printf("all experiments completed in %v\n", time.Since(t0).Round(time.Millisecond))
}
