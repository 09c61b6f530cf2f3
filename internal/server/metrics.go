package server

// This file is the server's observability surface: stdlib-only,
// allocation-free-on-the-hot-path per-endpoint metrics rendered in
// Prometheus text exposition format by GET /metrics. Nothing here takes
// a lock on the request path — every counter is an atomic, and the
// endpoint registry is frozen at construction (New registers every
// route before the handler is reachable), so recording a sample is a
// handful of atomic adds.
//
// In-process histograms are also what makes single-run benchmark deltas
// on shared CI hardware meaningful: a p99 shift shows up in the bucket
// counts of the run itself rather than requiring a quiet machine.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"memex/internal/core"
	"memex/internal/kvstore"
)

// latencyBuckets are the histogram's fixed upper bounds: log-spaced
// (×2) from 100µs to ~13s, which brackets everything from an in-memory
// status read to a worst-case mining-pass-sized request. A fixed global
// layout keeps bucket math branch-free and lets dashboards aggregate
// across endpoints without bucket alignment games.
var latencyBuckets = func() [18]time.Duration {
	var b [18]time.Duration
	d := 100 * time.Microsecond
	for i := range b {
		b[i] = d
		d *= 2
	}
	return b
}()

// histogram is a fixed-bucket latency histogram safe for concurrent
// writers: one atomic counter per bucket (the last slot is +Inf), plus
// total count and a nanosecond sum for the Prometheus _count/_sum pair.
type histogram struct {
	buckets  [len(latencyBuckets) + 1]atomic.Uint64
	count    atomic.Uint64
	sumNanos atomic.Int64
}

// observe records one sample.
func (h *histogram) observe(d time.Duration) {
	i := 0
	for i < len(latencyBuckets) && d > latencyBuckets[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
}

// Rejection reasons for the per-endpoint shed counters; values double
// as the Prometheus `reason` label.
const (
	rejectRate     = "rate"
	rejectInFlight = "inflight"
	rejectQueue    = "queue"
)

// rejectReasons lists every reason, in exposition order.
var rejectReasons = []string{rejectRate, rejectInFlight, rejectQueue}

// endpointMetrics holds one route's counters. All fields are atomics;
// the struct is shared by every request to the route.
type endpointMetrics struct {
	name     string // the mux pattern, e.g. "POST /api/event"
	requests atomic.Uint64
	err4xx   atomic.Uint64
	err5xx   atomic.Uint64
	// rejected counts admission-control refusals by reason, a subset of
	// err4xx/err5xx kept separate so shedding is visible at a glance.
	rejected map[string]*atomic.Uint64
	latency  histogram
}

func newEndpointMetrics(name string) *endpointMetrics {
	em := &endpointMetrics{name: name, rejected: map[string]*atomic.Uint64{}}
	for _, reason := range rejectReasons {
		em.rejected[reason] = &atomic.Uint64{}
	}
	return em
}

// observe records a completed (or rejected) request's status and
// latency.
func (em *endpointMetrics) observe(code int, d time.Duration) {
	switch {
	case code >= 500:
		em.err5xx.Add(1)
	case code >= 400:
		em.err4xx.Add(1)
	}
	em.latency.observe(d)
}

// metricsSet is the server-wide registry: one endpointMetrics per
// route plus the global in-flight gauge. endpoints is written only
// during New (before the handler serves) and read-only afterwards, so
// request-path and render-path access takes no lock.
type metricsSet struct {
	endpoints map[string]*endpointMetrics
	inFlight  atomic.Int64
}

func newMetricsSet() *metricsSet {
	return &metricsSet{endpoints: map[string]*endpointMetrics{}}
}

// register creates (once) the metrics slot for a route. Must only be
// called during construction.
func (m *metricsSet) register(name string) *endpointMetrics {
	em := newEndpointMetrics(name)
	m.endpoints[name] = em
	return em
}

// --- Prometheus text rendering ---

// fmtFloat renders a float the way Prometheus expects (shortest
// round-trip representation).
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func promHeader(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sortedEndpoints returns the registry's rows in stable name order so
// consecutive scrapes (and tests) see identical layouts.
func (m *metricsSet) sortedEndpoints() []*endpointMetrics {
	out := make([]*endpointMetrics, 0, len(m.endpoints))
	for _, em := range m.endpoints {
		out = append(out, em)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// writeHTTPMetrics renders the per-endpoint request/error/rejection
// counters and latency histograms.
func (m *metricsSet) writeHTTPMetrics(w io.Writer) {
	eps := m.sortedEndpoints()

	promHeader(w, "memex_http_requests_total", "Requests received, by endpoint (rejections included).", "counter")
	for _, em := range eps {
		fmt.Fprintf(w, "memex_http_requests_total{endpoint=%q} %d\n", em.name, em.requests.Load())
	}

	promHeader(w, "memex_http_errors_total", "Responses with 4xx/5xx status, by endpoint and class.", "counter")
	for _, em := range eps {
		fmt.Fprintf(w, "memex_http_errors_total{endpoint=%q,class=\"4xx\"} %d\n", em.name, em.err4xx.Load())
		fmt.Fprintf(w, "memex_http_errors_total{endpoint=%q,class=\"5xx\"} %d\n", em.name, em.err5xx.Load())
	}

	promHeader(w, "memex_http_rejected_total", "Requests refused by admission control, by endpoint and reason.", "counter")
	for _, em := range eps {
		for _, reason := range rejectReasons {
			fmt.Fprintf(w, "memex_http_rejected_total{endpoint=%q,reason=%q} %d\n", em.name, reason, em.rejected[reason].Load())
		}
	}

	promHeader(w, "memex_http_in_flight", "Requests currently being served.", "gauge")
	fmt.Fprintf(w, "memex_http_in_flight %d\n", m.inFlight.Load())

	promHeader(w, "memex_http_request_duration_seconds", "Request latency, by endpoint.", "histogram")
	for _, em := range eps {
		var cum uint64
		for i, bound := range latencyBuckets {
			cum += em.latency.buckets[i].Load()
			fmt.Fprintf(w, "memex_http_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n",
				em.name, fmtFloat(bound.Seconds()), cum)
		}
		cum += em.latency.buckets[len(latencyBuckets)].Load()
		fmt.Fprintf(w, "memex_http_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", em.name, cum)
		fmt.Fprintf(w, "memex_http_request_duration_seconds_sum{endpoint=%q} %s\n",
			em.name, fmtFloat(float64(em.latency.sumNanos.Load())/1e9))
		fmt.Fprintf(w, "memex_http_request_duration_seconds_count{endpoint=%q} %d\n",
			em.name, em.latency.count.Load())
	}
}

// handleMetrics serves GET /metrics: the HTTP-layer metrics above plus
// gauges wired from the engine's own counter snapshot (queue depth,
// fold/GC activity, cache hit ratio, pin count), so one scrape shows
// both how the server is answering and why it might stop.
func (s *Server) handleMetrics(*http.Request) (reply, error) {
	w := new(bytes.Buffer)
	s.metrics.writeHTTPMetrics(w)
	writeEngineMetrics(w, s.engine.Status())
	return reply{"text/plain; version=0.0.4; charset=utf-8", w.Bytes()}, nil
}

// writeEngineMetrics renders one Stats snapshot — the one /api/status
// serves — as gauges and counters.
func writeEngineMetrics(w io.Writer, st core.Stats) {
	g := func(name, help string, v float64) {
		promHeader(w, name, help, "gauge")
		fmt.Fprintf(w, "%s %s\n", name, fmtFloat(v))
	}
	c := func(name, help string, v float64) {
		promHeader(w, name, help, "counter")
		fmt.Fprintf(w, "%s %s\n", name, fmtFloat(v))
	}

	// Ingest / publish pipeline.
	g("memex_engine_queue_depth", "Background event queue depth.", float64(st.QueueDepth))
	g("memex_engine_queue_capacity", "Background event queue capacity.", float64(st.QueueCap))
	g("memex_engine_backlog", "Background work not yet done: queued events, groups in analysis, and refetches listed at open.", float64(st.Backlog))
	c("memex_engine_events_dropped_total", "Events shed by the queue's drop-oldest overflow.", float64(st.EventsDropped))
	c("memex_engine_visits_total", "Visits logged.", float64(st.Visits))
	c("memex_engine_bookmarks_total", "Bookmarks logged.", float64(st.Bookmarks))
	c("memex_engine_pages_fetched_total", "Pages fetched from the source by this process.", float64(st.PagesFetched))
	c("memex_engine_fetches_failed_total", "Background fetches given up when their group's row commit or publish failed; the page stays unfetched and is retried.", float64(st.FetchesFailed))
	g("memex_engine_pages_indexed", "Pages in the inverted index.", float64(st.PagesIndexed))
	g("memex_engine_users", "Registered users.", float64(st.Users))

	// Version store: watermark, pins, tier and fold activity.
	g("memex_version_watermark", "Last published epoch.", float64(st.Version.Watermark))
	g("memex_version_layers", "Layers in the version chain (worst-case read walk).", float64(st.Version.Layers))
	g("memex_version_entries", "Versions held in the chain.", float64(st.Version.Entries))
	g("memex_version_pinned", "Snapshots currently pinning a state.", float64(st.Version.Pinned))
	c("memex_version_gc_reclaimed_total", "Versions dropped from memory: superseded inside a tier merge, or folded to disk.", float64(st.Version.GCReclaimed))
	cold := st.Version.Cold
	g("memex_version_fold_lag_epochs", "Published watermark minus durable fold watermark.", float64(st.FoldLag))
	g("memex_version_cold_records", "Keys on disk (one version each).", float64(cold.Records))
	c("memex_version_folds_total", "Completed fold rounds.", float64(cold.Folds))
	c("memex_version_fold_errors_total", "Fold rounds that failed; their layers stay resident (last error in /api/status).", float64(cold.FoldErrors))
	c("memex_version_cold_reads_total", "Snapshot gets that fell through to disk.", float64(cold.Reads))

	// Decoded-record cache.
	cache := st.Cache
	c("memex_cache_hits_total", "Decoded-record cache hits, repeat reads within a view included.", float64(cache.Hits))
	c("memex_cache_misses_total", "Decoded-record cache misses.", float64(cache.Misses))
	promHeader(w, "memex_cache_evicted_total", "Cache entries evicted, by cause (lru = memory pressure, floor = below pin floor).", "counter")
	fmt.Fprintf(w, "memex_cache_evicted_total{cause=\"lru\"} %d\n", cache.EvictedLRU)
	fmt.Fprintf(w, "memex_cache_evicted_total{cause=\"floor\"} %d\n", cache.EvictedFloor)
	c("memex_cache_skipped_oversize_total", "Whale records refused cache admission.", float64(cache.SkippedOversize))
	g("memex_cache_bytes", "Approximate decoded cache footprint.", float64(cache.Bytes))
	g("memex_cache_max_bytes", "Decoded cache budget.", float64(cache.MaxBytes))
	g("memex_cache_hit_ratio", "Cache hits over lookups.", float64(cache.Hits)/float64(max(1, cache.Hits+cache.Misses)))

	g("memex_disk_bytes", "Backing kvstore size on disk.", float64(st.DiskBytes))
	c("memex_kv_commits_total", "Kvstore WAL commits by this process (one write-lock turn and flush each).", float64(st.KV.Commits))
	c("memex_kv_wal_bytes_total", "Kvstore WAL bytes appended by this process.", float64(st.KV.WALBytes))
	c("memex_kv_checkpoints_total", "Kvstore checkpoints by this process: the only writes of data.db pages.", float64(st.KV.Checkpoints))
	c("memex_kv_leaf_splits_total", "Full B+tree leaves that took a new page.", float64(st.KV.LeafSplits))
	c("memex_kv_leaf_rebalances_total", "Full B+tree leaves that shed cells into a sibling instead of splitting.", float64(st.KV.LeafRebalances))
	promHeader(w, "memex_kv_sync_policy", "Kvstore WAL sync policy, 1 on the active one: always = a commit is fsynced before its ack, group = fsynced at the next checkpoint.", "gauge")
	for _, p := range []kvstore.SyncPolicy{kvstore.SyncAlways, kvstore.SyncGroup} {
		on := 0
		if p == st.KV.Sync {
			on = 1
		}
		fmt.Fprintf(w, "memex_kv_sync_policy{policy=%q} %d\n", p, on)
	}
	age := math.NaN() // no fsync yet in this life
	if !st.KV.LastFsync.IsZero() {
		age = time.Since(st.KV.LastFsync).Seconds()
	}
	g("memex_kv_last_fsync_age_seconds", "Seconds since the kvstore last fsynced (a SyncAlways commit or a checkpoint): every commit older than this survives a power cut. NaN before the first.", age)
	g("memex_graph_edges", "Directed edges in the link graph.", float64(st.GraphEdges))
	g("memex_dict_terms", "Terms in the durable term dictionary.", float64(st.Terms))
}
