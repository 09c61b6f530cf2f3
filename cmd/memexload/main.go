// Command memexload drives a synthetic mixed ingest+query workload —
// Zipfian human sessions plus bursty robot crawls, per "Access Patterns
// for Robots and Humans in Web Archives" — against a live memexd, times
// every request it sends from send to reply, and judges the run against
// SLO budgets on those client-side samples (p50/p99/p999 by nearest
// rank, the rule bench's client.*_p99_ms figures use). It is the tool
// behind CI's slo job; see the internal/load package doc for the
// scenario format and budgets.
//
// Usage:
//
//	memexload -target http://localhost:8600 -scenario ci-small -seed 1 \
//	    -world-seed 7 -slo-p99-status 750ms -out LOAD_2026-08-08_abc123.json
//
// The schedule is a pure function of (-scenario, -seed): two runs with
// the same pair produce identical request sequences (-print-schedule
// dumps it without touching the server). -world-seed must match the
// target memexd's -seed so visits land on pages its world can resolve.
//
// Exit status: 0 when every budget holds, 1 on SLO violations, 2 on
// usage or run errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"memex"
	"memex/internal/load"
)

func main() {
	var (
		target    = flag.String("target", "", "base URL of the memexd to drive (required unless -print-schedule)")
		scenario  = flag.String("scenario", "ci-small", "pinned scenario name (see internal/load: ci-small, unit)")
		seed      = flag.Int64("seed", 1, "schedule seed; same scenario+seed = identical request schedule")
		worldSeed = flag.Int64("world-seed", 7, "target server's world seed, for a URL/query universe its source resolves (0 = synthetic URLs the source will miss)")
		out       = flag.String("out", "", "write the LOAD_*.json report here (\"\" = stdout)")
		commit    = flag.String("commit", "", "commit hash to record in the report")
		printOnly = flag.Bool("print-schedule", false, "print the expanded schedule and exit without contacting the server")

		p99Status = flag.Duration("slo-p99-status", 0, "budget for the client-timed p99 of GET /api/status (0 = ungated)")
		maxLost   = flag.Int("slo-max-lost", 0, "budget for writes lost without a 429/503 answer")
		max5xx    = flag.Int("slo-max-5xx", 0, "budget for non-shed 5xx responses")
	)
	flag.Parse()

	sc, ok := load.Lookup(*scenario)
	if !ok {
		fmt.Fprintf(os.Stderr, "memexload: unknown scenario %q\n", *scenario)
		os.Exit(2)
	}

	if *printOnly {
		load.FormatSchedule(os.Stdout, sc.Schedule(*seed))
		return
	}
	if *target == "" {
		fmt.Fprintln(os.Stderr, "memexload: -target is required")
		os.Exit(2)
	}

	urls, queries := universe(sc, *worldSeed)
	rep, err := load.Run(sc, load.Options{
		Target:  *target,
		URLs:    urls,
		Queries: queries,
		Seed:    *seed,
		Commit:  *commit,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "memexload: %v\n", err)
		os.Exit(2)
	}

	budget := load.Budget{
		P99StatusReadMs: float64(*p99Status) / float64(time.Millisecond),
		MaxLost:         *maxLost,
		Max5xx:          *max5xx,
	}
	res := load.Evaluate(rep, budget)

	dst := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memexload: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		dst = f
	}
	if err := rep.WriteJSON(dst); err != nil {
		fmt.Fprintf(os.Stderr, "memexload: write report: %v\n", err)
		os.Exit(2)
	}

	fmt.Fprintf(os.Stderr, "memexload: %s @ %s: %d requests in %.1fs; writes ok/shed/lost %d/%d/%d\n",
		sc.Name, *target, rep.Requests, rep.DurationSec,
		rep.Writes.OK, rep.Writes.Shed, rep.Writes.Lost())
	if row, ok := rep.Row(load.StatusRead); ok {
		fmt.Fprintf(os.Stderr, "memexload: status reads p50/p99/p999 = %.2f/%.2f/%.2f ms over %d samples\n",
			row.P50Ms, row.P99Ms, row.P999Ms, row.Count)
	}
	if !res.Pass {
		for _, v := range res.Violations {
			fmt.Fprintf(os.Stderr, "memexload: SLO VIOLATION: %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "memexload: SLO pass")
}

// universe builds the page/query sets the schedule indices resolve
// against. With a world seed it regenerates the same deterministic
// corpus the target memexd serves, so visits resolve to real pages and
// searches use terms the index actually contains; without one it
// fabricates URLs the source will miss (still a valid load shape — the
// fetch failures exercise the error path, not the SLO).
func universe(sc load.Scenario, worldSeed int64) (urls, queries []string) {
	if worldSeed != 0 {
		world := memex.GenerateWorld(memex.WorldConfig{Seed: worldSeed})
		for _, p := range world.Corpus.Pages {
			urls = append(urls, p.URL)
			if len(urls) == sc.Pages {
				break
			}
		}
		for _, t := range world.Corpus.Leaves() {
			queries = append(queries, t.Name)
			if len(queries) == sc.Queries {
				break
			}
		}
	}
	for len(urls) < sc.Pages {
		urls = append(urls, fmt.Sprintf("http://load.example.org/p%d.html", len(urls)))
	}
	for len(queries) < sc.Queries {
		queries = append(queries, fmt.Sprintf("query%d", len(queries)))
	}
	return urls, queries
}
