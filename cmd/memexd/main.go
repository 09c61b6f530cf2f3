// Command memexd runs a Memex server over a synthetic Web world.
//
// In the paper's deployment the server tapped volunteers' Netscape
// browsers; this daemon substitutes the DESIGN.md §2 world (a generated
// topical Web plus, optionally, a pre-played community trace) and exposes
// the full servlet API on -addr. Point cmd/memexctl or any HTTP client at
// it.
//
// Usage:
//
//	memexd -addr :8600 -dir /tmp/memex -seed 7 -replay 5000
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"memex"
	"memex/internal/server"
)

func main() {
	var (
		addr   = flag.String("addr", ":8600", "listen address")
		dir    = flag.String("dir", "", "data directory (required; holds the kvstore with the RDBMS tables, WAL, and the version store's cold tier — restarting on the same directory recovers all archived derived state)")
		seed   = flag.Int64("seed", 7, "world seed")
		replay = flag.Int("replay", 0, "pre-play this many simulated community visits (0 = none)")
		themes = flag.Duration("themes", time.Minute, "theme-rebuild demon interval (0 = manual)")
		train  = flag.Duration("train", 30*time.Second, "classifier-retrain demon interval (0 = manual)")
		gc     = flag.Duration("gc", 0, "version-store GC/fold demon interval (0 = engine default of 2s, negative = manual)")
		cache  = flag.Int64("cache", 0, "decoded-record cache budget in bytes (0 = engine default of 32 MiB, negative = disabled)")

		// Admission control (all default off; GET /metrics serves the
		// per-endpoint histograms and shed counters either way).
		rate     = flag.Float64("rate", 0, "per-client request rate limit in req/s, keyed by user param or remote host (0 = unlimited)")
		burst    = flag.Int("burst", 0, "rate-limit burst size (0 = 2×rate, min 8)")
		inflight = flag.Int("inflight", 0, "global cap on concurrently served requests; excess get 503 (0 = unlimited)")
		shedQ    = flag.Float64("shed-queue", 0.9, "shed write endpoints with 503 when the background event queue is this full (0 = never)")
		shedLag  = flag.Uint64("shed-foldlag", 0, "shed write endpoints with 503 when the publish watermark runs this many epochs ahead of the durable fold watermark (0 = never)")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "memexd: -dir is required")
		os.Exit(2)
	}

	world := memex.GenerateWorld(memex.WorldConfig{Seed: *seed})
	m, err := memex.Open(memex.Config{
		Dir:           *dir,
		Source:        world.Source(),
		ThemeInterval: *themes,
		TrainInterval: *train,
		GCInterval:    *gc,
		CacheBytes:    *cache,
	})
	if err != nil {
		log.Fatalf("memexd: %v", err)
	}
	defer m.Close()
	if st := m.Status(); st.Version.Cold != nil && st.Version.Cold.Records > 0 {
		log.Printf("recovered %d cold derived records at watermark %d from %s (%d pages indexed, link graph %d edges, no re-crawl needed)",
			st.Version.Cold.Records, st.Version.Cold.Watermark, *dir, st.PagesIndexed, st.GraphEdges)
	}

	if *replay > 0 {
		log.Printf("replaying %d simulated visits from %d users…", *replay, len(world.Trace.Users))
		n, err := m.ReplayTrace(world, *replay)
		if err != nil {
			log.Fatalf("memexd: replay: %v", err)
		}
		m.DrainBackground()
		m.RetrainClassifiers()
		st := m.RebuildThemes()
		log.Printf("replayed %d visits; %d themes discovered", n, st.Themes)
	}

	// Serve until SIGINT/SIGTERM, then shut down in order: drain the HTTP
	// listener first (in-flight requests finish against a live engine),
	// then close the engine — Close folds the version store's remaining
	// in-memory tier to the cold keyspace, which is what makes the next
	// start on this -dir recover every archived derived record instead of
	// re-crawling. A hard kill loses only what was published after the
	// last GC fold (the crash contract in internal/version/cold.go).
	srv := server.HTTPServer(*addr, m.HandlerWith(memex.ServeConfig{
		RatePerSec:        *rate,
		Burst:             *burst,
		MaxInFlight:       *inflight,
		ShedQueueFraction: *shedQ,
		ShedFoldLag:       *shedLag,
	}))
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	log.Printf("memex server listening on %s (world seed %d, %d pages)",
		*addr, *seed, len(world.Corpus.Pages))
	select {
	case err := <-errCh:
		// Fold before dying: log.Fatalf skips deferred Closes, and the
		// replayed/ingested derived state since the last GC fold would
		// otherwise be lost to a mere port clash.
		m.Close()
		log.Fatalf("memexd: serve: %v", err)
	case sig := <-sigCh:
		log.Printf("memexd: %v: draining requests, folding derived state to %s and shutting down", sig, *dir)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("memexd: http shutdown: %v", err)
		}
		cancel()
		if err := m.Close(); err != nil {
			log.Fatalf("memexd: close: %v", err)
		}
	}
}
