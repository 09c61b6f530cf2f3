// Command bench is the repository's benchmark: three closed-loop surf
// workloads played through the HTTP API against one engine, reporting the
// end-to-end metrics BENCHMARK.json gates (or, traced, the per-layer
// metrics: the client's timings and a ladder down the layers) and checking
// every answer against an oracle built from the generated inputs. See
// README.md beside this file.
//
//	go run ./bench -workload recall-query -seed 1
//	go run ./bench -workload crawl-ingest -seed 1 -trace 1
//	go run ./bench -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// roundSeconds is the nominal length of one measured round: -seconds buys
// one round per roundSeconds, and BENCHMARK.json's run_seconds buys the
// five every comparison is made on. Work is counted in requests, never in
// seconds, so both sides of a comparison do the same work.
const roundSeconds = 5

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: crawl-ingest, recall-query or surf-mixed")
		seed      = flag.Int64("seed", 1, "seed every input is generated from")
		seconds   = flag.Int("seconds", measuredRounds*roundSeconds, "nominal measuring time; one round per 5 s")
		trace     = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics, the cost table and the span file")
		spans     = flag.String("spans", "", "file a traced run writes its spans to (default: in the run's scratch directory, removed at exit)")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice five times and compare the medians against the bounds")
	)
	flag.Parse()
	if *selfcheck {
		os.Exit(selfCheck(os.Stdout))
	}
	wl, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cfg := runConfig{workload: wl, seed: *seed, world: fullWorld, trace: *trace != 0}
	cfg.rounds = max(1, *seconds/roundSeconds)
	if cfg.trace {
		cfg.rounds = min(cfg.rounds, tracedRounds)
		cfg.settle = twinSettle
		cfg.spans = *spans
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
	for _, f := range rep.failures {
		fmt.Fprintf(os.Stderr, "bench: failed: %s\n", f)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   rep.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("%s\n", line)
	if rep.failed != 0 {
		os.Exit(1)
	}
}
