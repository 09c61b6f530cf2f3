package client_test

import (
	"errors"
	"net/http/httptest"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"memex/internal/client"
	"memex/internal/core"
	"memex/internal/kvstore"
	"memex/internal/server"
	"memex/internal/webcorpus"
)

// corpusSource adapts the synthetic web to the engine's PageSource.
type corpusSource struct {
	c *webcorpus.Corpus
}

func (s corpusSource) Lookup(url string) (core.Content, bool) {
	id, ok := s.c.ByURL[url]
	if !ok {
		return core.Content{}, false
	}
	p := s.c.Page(id)
	links := make([]string, 0, len(p.Links))
	for _, l := range p.Links {
		links = append(links, s.c.Page(l).URL)
	}
	return core.Content{URL: p.URL, Title: p.Title, Text: p.Text, Links: links}, true
}

func newTestServer(t *testing.T) (*webcorpus.Corpus, *core.Engine, *client.Client) {
	t.Helper()
	c := webcorpus.Generate(webcorpus.Config{Seed: 9, TopTopics: 3, SubPerTopic: 2, PagesPerLeaf: 15})
	e, err := core.Open(core.Config{
		Dir:    t.TempDir(),
		Source: corpusSource{c},
		KV:     kvstore.Options{Sync: kvstore.SyncNever},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(e))
	t.Cleanup(func() {
		ts.Close()
		e.Close()
	})
	return c, e, client.New(ts.URL)
}

var tBase = time.Date(2000, 5, 21, 10, 0, 0, 0, time.UTC)

func TestEndToEndVisitSearch(t *testing.T) {
	c, e, cl := newTestServer(t)
	if err := cl.Register(1, "alice"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	leaf := c.Leaves()[0]
	var visited int
	for _, pid := range c.LeafPages[leaf.ID] {
		p := c.Page(pid)
		if p.Front {
			continue
		}
		if err := cl.Visit(1, p.URL, "", tBase, "community"); err != nil {
			t.Fatalf("Visit: %v", err)
		}
		visited++
		if visited == 6 {
			break
		}
	}
	e.DrainBackground()

	top := c.Topics[leaf.Parent]
	hits, err := cl.Search(1, top.Name+"_"+leaf.Name+"01", 5)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(hits) == 0 {
		t.Fatal("no hits over HTTP")
	}

	st, err := cl.Status()
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st.Visits != int64(visited) {
		t.Fatalf("Status.Visits = %d, want %d", st.Visits, visited)
	}
	// The version store's shape must survive the HTTP round trip:
	// operators watch chain depth from here. Nothing publishes after the
	// drain, and a gc tick this small writes nothing, so the engine's own
	// figures are the ones the reply must carry.
	v, want := st.Version, e.Status().Version
	if v.Watermark == 0 || v.Layers == 0 || v.Entries < v.Layers {
		t.Fatalf("version stats over HTTP: watermark=%d layers=%d entries=%d", v.Watermark, v.Layers, v.Entries)
	}
	if v.Layers != want.Layers || v.Entries != want.Entries || v.Watermark != want.Watermark {
		t.Fatalf("version stats over HTTP: layers=%d entries=%d watermark=%d, engine says %d/%d/%d",
			v.Layers, v.Entries, v.Watermark, want.Layers, want.Entries, want.Watermark)
	}
}

func TestEndToEndBookmarkThemesRecommend(t *testing.T) {
	c, e, cl := newTestServer(t)
	leaves := c.Leaves()
	for u := int64(1); u <= 3; u++ {
		cl.Register(u, "user")
		leaf := leaves[0]
		if u == 3 {
			leaf = leaves[3]
		}
		n := 0
		for _, pid := range c.LeafPages[leaf.ID] {
			p := c.Page(pid)
			if p.Front {
				continue
			}
			cl.Bookmark(u, p.URL, "/interest", tBase)
			cl.Visit(u, p.URL, "", tBase.Add(time.Duration(n)*time.Minute), "community")
			n++
			if n == 6 {
				break
			}
		}
	}
	e.DrainBackground()

	st, err := cl.RebuildThemes()
	if err != nil {
		t.Fatalf("RebuildThemes: %v", err)
	}
	if st.Themes == 0 {
		t.Fatal("no themes")
	}
	ths, err := cl.Themes()
	if err != nil || len(ths) == 0 {
		t.Fatalf("Themes: %v (%d)", err, len(ths))
	}
	weights, err := cl.Profile(1)
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	if len(weights) == 0 {
		t.Fatal("empty profile over HTTP")
	}
	recs, err := cl.Recommend(1, 5, "")
	if err != nil {
		t.Fatalf("Recommend: %v", err)
	}
	_ = recs // may be empty if peers saw nothing new; API must not error
}

// countingSource wraps a PageSource and counts every Lookup — the e2e
// definition of "network fetch".
type countingSource struct {
	inner   core.PageSource
	lookups *atomic.Int64
}

func (s countingSource) Lookup(url string) (core.Content, bool) {
	s.lookups.Add(1)
	return s.inner.Lookup(url)
}

// TestEndToEndRestartRecoversDerivedState is the ISSUE 3+4 e2e restart
// test: ingest pages, stop memexd's engine, restart it on the same data
// directory, and assert that search/themes/recommend/trails/discover
// answers all match the pre-restart snapshots, that /api/status reports
// cold-tier records and the recovered link graph, and that the entire
// second life — including a full Discover crawl over the recovered
// frontier and re-visits of archived pages — performs zero network
// fetches: every answer comes from the version store's recovered
// records, not from re-crawling.
func TestEndToEndRestartRecoversDerivedState(t *testing.T) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 9, TopTopics: 3, SubPerTopic: 2, PagesPerLeaf: 15})
	dir := t.TempDir()
	var lookups atomic.Int64
	open := func() (*core.Engine, *httptest.Server, *client.Client) {
		e, err := core.Open(core.Config{
			Dir:    dir,
			Source: countingSource{corpusSource{c}, &lookups},
			KV:     kvstore.Options{Sync: kvstore.SyncNever},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(server.New(e))
		return e, ts, client.New(ts.URL)
	}

	// --- first life: ingest and snapshot the mining answers ---
	e1, ts1, cl1 := open()
	leaves := c.Leaves()
	var visited []string
	for u := int64(1); u <= 3; u++ {
		cl1.Register(u, "user")
		leaf, other := leaves[0], leaves[3]
		if u == 3 {
			leaf, other = leaves[3], leaves[0]
		}
		n := 0
		for _, pid := range c.LeafPages[leaf.ID] {
			p := c.Page(pid)
			if p.Front {
				continue
			}
			cl1.Bookmark(u, p.URL, "/interest", tBase)
			cl1.Visit(u, p.URL, "", tBase.Add(time.Duration(n)*time.Minute), "community")
			if u == 1 {
				visited = append(visited, p.URL)
			}
			n++
			if n == 6 {
				break
			}
		}
		// A second folder gives every user a trainable (≥2-class)
		// classifier, which Trails and Discover need.
		m := 0
		for _, pid := range c.LeafPages[other.ID] {
			p := c.Page(pid)
			if p.Front {
				continue
			}
			cl1.Bookmark(u, p.URL, "/other", tBase)
			m++
			if m == 3 {
				break
			}
		}
	}
	e1.DrainBackground()

	// Discover expands the archive (each crawl fetches new frontier
	// pages), which grows the corpus the classifier trains over — so
	// iterate retrain→discover until a whole crawl is served from the
	// archive alone. That fixpoint is the reproducible reference state:
	// the second life recovers exactly this archive and must propose the
	// identical frontier without a single fetch.
	e1.RetrainClassifiers()
	var discoverPre []core.PageInfo
	converged := false
	for round := 0; round < 8; round++ {
		before := lookups.Load()
		var err error
		discoverPre, err = cl1.Discover(1, "/interest", 200, 8)
		if err != nil {
			t.Fatalf("Discover pre-restart: %v", err)
		}
		e1.DrainBackground()
		if lookups.Load() == before {
			converged = true
			break
		}
		e1.RetrainClassifiers()
	}
	if !converged {
		t.Fatal("Discover never converged to a zero-fetch crawl")
	}
	if len(discoverPre) == 0 {
		t.Fatal("Discover proposed nothing pre-restart")
	}

	themesPre, err := cl1.RebuildThemes()
	if err != nil || themesPre.Themes == 0 {
		t.Fatalf("RebuildThemes pre-restart: %v (%d themes)", err, themesPre.Themes)
	}
	query := c.Topics[leaves[0].Parent].Name + "_" + leaves[0].Name + "01"
	searchPre, err := cl1.Search(1, query, 5)
	if err != nil || len(searchPre) == 0 {
		t.Fatalf("Search pre-restart: %v (%d hits)", err, len(searchPre))
	}
	recsPre, err := cl1.Recommend(1, 5, "")
	if err != nil {
		t.Fatalf("Recommend pre-restart: %v", err)
	}
	trailsPre, err := cl1.Trails(1, "/interest", 10)
	if err != nil {
		t.Fatalf("Trails pre-restart: %v", err)
	}
	stPre, err := cl1.Status()
	if err != nil {
		t.Fatal(err)
	}
	if stPre.GraphNodes == 0 || stPre.GraphEdges == 0 {
		t.Fatalf("no link graph over HTTP pre-restart: %+v", stPre)
	}
	ts1.Close()
	if err := e1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// --- second life: same data dir, fresh process state ---
	atRestart := lookups.Load()
	e2, ts2, cl2 := open()
	defer func() {
		ts2.Close()
		e2.Close()
	}()
	stPost, err := cl2.Status()
	if err != nil {
		t.Fatal(err)
	}
	if stPost.Version.Cold == nil || stPost.Version.Cold.Records == 0 {
		t.Fatal("/api/status reports no cold-tier records after restart")
	}
	// The recovered watermark can sit above the observed one only if an
	// analyzer was still publishing when the status was read (Close itself
	// publishes nothing) — but never below it: below would mean published
	// epochs were lost across the restart.
	if stPost.Version.Watermark < stPre.Version.Watermark {
		t.Fatalf("restart lost epochs: watermark %d, want >= %d", stPost.Version.Watermark, stPre.Version.Watermark)
	}
	if stPost.PagesIndexed != stPre.PagesIndexed {
		t.Fatalf("index rebuilt with %d docs, want %d", stPost.PagesIndexed, stPre.PagesIndexed)
	}
	// The link graph came back from the recovered lnk/ records: same
	// shape, before any fetch or visit in this life.
	if stPost.GraphNodes != stPre.GraphNodes || stPost.GraphEdges != stPre.GraphEdges {
		t.Fatalf("restart lost link graph: %d/%d nodes, %d/%d edges",
			stPost.GraphNodes, stPre.GraphNodes, stPost.GraphEdges, stPre.GraphEdges)
	}

	// Search answers must match: the inverted index was rebuilt from the
	// recovered term-count records, not from re-fetching.
	searchPost, err := cl2.Search(1, query, 5)
	if err != nil {
		t.Fatalf("Search post-restart: %v", err)
	}
	if got, want := hitURLs(searchPost), hitURLs(searchPre); !slices.Equal(got, want) {
		t.Fatalf("search diverged after restart: %v, want %v", got, want)
	}

	// Themes and recommendations are recomputed from recovered vectors
	// (and, for recommend's link-proximity boost, recovered adjacency)
	// and must land where they did before the restart.
	themesPost, err := cl2.RebuildThemes()
	if err != nil || themesPost.Themes != themesPre.Themes {
		t.Fatalf("themes after restart: %v (%d, want %d)", err, themesPost.Themes, themesPre.Themes)
	}
	recsPost, err := cl2.Recommend(1, 5, "")
	if err != nil {
		t.Fatalf("Recommend post-restart: %v", err)
	}
	if got, want := hitURLs(recsPost), hitURLs(recsPre); !slices.Equal(got, want) {
		t.Fatalf("recommendations diverged after restart: %v, want %v", got, want)
	}

	// Trails and Discover read the recovered link records through pinned
	// views; with the retrained (deterministic) classifier they must
	// reproduce the pre-restart context and frontier exactly.
	e2.RetrainClassifiers()
	trailsPost, err := cl2.Trails(1, "/interest", 10)
	if err != nil {
		t.Fatalf("Trails post-restart: %v", err)
	}
	if got, want := hitURLs(trailsPost.Pages), hitURLs(trailsPre.Pages); !slices.Equal(got, want) {
		t.Fatalf("trail pages diverged after restart: %v, want %v", got, want)
	}
	if got, want := hitURLs(trailsPost.Popular), hitURLs(trailsPre.Popular); !slices.Equal(got, want) {
		t.Fatalf("trail popular set diverged after restart: %v, want %v", got, want)
	}
	discoverPost, err := cl2.Discover(1, "/interest", 200, 8)
	if err != nil {
		t.Fatalf("Discover post-restart: %v", err)
	}
	if got, want := hitURLs(discoverPost), hitURLs(discoverPre); !slices.Equal(got, want) {
		t.Fatalf("discover frontier diverged after restart: %v, want %v", got, want)
	}

	// Re-visiting already-archived pages must not re-crawl: the fetch
	// path's "already published" check now reads the recovered cold tier.
	for i, url := range visited {
		if err := cl2.Visit(1, url, "", tBase.Add(time.Duration(24+i)*time.Hour), "community"); err != nil {
			t.Fatal(err)
		}
	}
	e2.DrainBackground()
	stAfter, err := cl2.Status()
	if err != nil {
		t.Fatal(err)
	}
	if stAfter.PagesFetched != 0 {
		t.Fatalf("restarted server re-fetched %d already-archived pages", stAfter.PagesFetched)
	}
	// The hard guarantee behind all of the above: the entire second life —
	// status, search, themes, recommend, trails, a full Discover crawl,
	// and the re-visits — touched the page source zero times.
	if n := lookups.Load() - atRestart; n != 0 {
		t.Fatalf("second life performed %d network fetches; want 0", n)
	}
}

// hitURLs projects any result slice with URL fields to its URL set.
func hitURLs(hits []core.PageInfo) []string {
	urls := make([]string, 0, len(hits))
	for _, h := range hits {
		urls = append(urls, h.URL)
	}
	sort.Strings(urls)
	return urls
}

func TestEndToEndImportExport(t *testing.T) {
	c, _, cl := newTestServer(t)
	cl.Register(1, "alice")
	p := c.Page(c.LeafPages[c.Leaves()[0].ID][0])
	src := `<!DOCTYPE NETSCAPE-Bookmark-file-1>
<DL><p>
    <DT><H3>Research</H3>
    <DL><p>
        <DT><A HREF="` + p.URL + `" ADD_DATE="958800000">Seed</A>
    </DL><p>
</DL><p>`
	n, err := cl.ImportBookmarks(1, strings.NewReader(src))
	if err != nil || n != 1 {
		t.Fatalf("Import: n=%d err=%v", n, err)
	}
	out, err := cl.ExportBookmarks(1)
	if err != nil {
		t.Fatalf("Export: %v", err)
	}
	if !strings.Contains(out, p.URL) || !strings.Contains(out, "Research") {
		t.Fatal("export incomplete")
	}
}

func TestValidationErrors(t *testing.T) {
	_, _, cl := newTestServer(t)
	if err := cl.Register(0, ""); err == nil {
		t.Fatal("bad register accepted")
	}
	if err := cl.Visit(0, "", "", tBase, ""); err == nil {
		t.Fatal("bad visit accepted")
	}
	if err := cl.Bookmark(1, "", "", tBase); err == nil {
		t.Fatal("bad bookmark accepted")
	}
	if _, err := cl.Search(1, "", 5); err == nil {
		t.Fatal("empty query accepted")
	}
	if _, err := cl.Trails(0, "", 5); err == nil {
		t.Fatal("bad trails request accepted")
	}
	if err := cl.Correct(1, "http://never-seen.example/", "/x"); err == nil {
		t.Fatal("correct on unknown page accepted")
	}
}

// TestEndToEndMetricsObserveTraffic drives real API traffic and asserts
// the /metrics scrape moves with it: per-endpoint request counters and
// latency histogram samples, plus the engine gauges, all over HTTP.
func TestEndToEndMetricsObserveTraffic(t *testing.T) {
	c, e, cl := newTestServer(t)
	if err := cl.Register(1, "alice"); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, pid := range c.LeafPages[c.Leaves()[0].ID] {
		p := c.Page(pid)
		if p.Front {
			continue
		}
		if err := cl.Visit(1, p.URL, "", tBase, "community"); err != nil {
			t.Fatal(err)
		}
		n++
		if n == 5 {
			break
		}
	}
	e.DrainBackground()
	if _, err := cl.Status(); err != nil {
		t.Fatal(err)
	}

	body, err := cl.Metrics()
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	for _, want := range []string{
		`memex_http_requests_total{endpoint="POST /api/event"} 5`,
		`memex_http_request_duration_seconds_count{endpoint="POST /api/event"} 5`,
		`memex_http_request_duration_seconds_bucket{endpoint="POST /api/event",le="+Inf"} 5`,
		`memex_http_requests_total{endpoint="POST /api/user"} 1`,
		"memex_engine_visits_total 5",
		"memex_engine_queue_depth 0",
		"memex_version_watermark",
		"memex_cache_hit_ratio",
		"memex_http_in_flight",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics scrape missing %q", want)
		}
	}
}

// gatedSource blocks every Lookup until the gate closes, so the
// background analyzers wedge and the event queue backs up on demand.
type gatedSource struct {
	inner core.PageSource
	gate  chan struct{}
}

func (s gatedSource) Lookup(url string) (core.Content, bool) {
	<-s.gate
	return s.inner.Lookup(url)
}

// TestEndToEndShedUnderSaturatingBurst is the acceptance test for
// admission control: with the analyzers wedged, a saturating burst of
// ingest must be answered with early 503s once the publish pipeline's
// queue crosses the shed threshold — not queued unboundedly and then
// dropped silently.
func TestEndToEndShedUnderSaturatingBurst(t *testing.T) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 9, TopTopics: 3, SubPerTopic: 2, PagesPerLeaf: 15})
	gate := make(chan struct{})
	e, err := core.Open(core.Config{
		Dir:       t.TempDir(),
		Source:    gatedSource{corpusSource{c}, gate},
		KV:        kvstore.Options{Sync: kvstore.SyncNever},
		QueueSize: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.NewWith(e, server.Config{ShedQueueFraction: 0.5}))
	released := false
	release := func() {
		if !released {
			released = true
			close(gate)
		}
	}
	t.Cleanup(func() {
		release()
		ts.Close()
		e.Close()
	})
	cl := client.New(ts.URL)
	if err := cl.Register(1, "alice"); err != nil {
		t.Fatal(err)
	}

	// Saturating burst: the two analyzer workers are wedged in Lookup, so
	// every accepted event stays queued; depth crosses 0.5×16 = 8 and the
	// server must start refusing.
	var accepted, shed int
	var pages []*webcorpus.Page
	for _, pid := range c.LeafPages[c.Leaves()[0].ID] {
		pages = append(pages, c.Page(pid))
	}
	for i := 0; i < 40; i++ {
		p := pages[i%len(pages)]
		err := cl.Visit(1, p.URL, "", tBase.Add(time.Duration(i)*time.Second), "community")
		switch {
		case err == nil:
			accepted++
		case strings.Contains(err.Error(), "(503)"):
			shed++
		default:
			t.Fatalf("visit %d: unexpected error %v", i, err)
		}
	}
	if shed == 0 {
		t.Fatalf("saturating burst never shed: %d accepted, queue unbounded", accepted)
	}
	if accepted == 0 {
		t.Fatal("admission shed everything, including the under-threshold prefix")
	}

	// The shed burst is visible to operators: reason-labelled rejection
	// counters and dropped-event accounting come back over /metrics even
	// while the pipeline is still wedged.
	body, err := cl.Metrics()
	if err != nil {
		t.Fatalf("Metrics during overload: %v", err)
	}
	if !strings.Contains(body, `memex_http_rejected_total{endpoint="POST /api/event",reason="queue"} `+strconv.Itoa(shed)) {
		t.Fatalf("queue rejections (%d) not counted in scrape", shed)
	}

	// Unwedge and drain: the accepted prefix completes, nothing was lost
	// to the queue's silent drop-oldest path.
	release()
	e.DrainBackground()
	st, err := cl.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.EventsDropped != 0 {
		t.Fatalf("%d events silently dropped despite shedding", st.EventsDropped)
	}
	if st.Visits != int64(accepted) {
		t.Fatalf("Visits = %d, want the %d accepted", st.Visits, accepted)
	}
}

// TestEndToEndRateLimit429 exercises the per-client token bucket over
// HTTP: a burst beyond the bucket answers 429 with Retry-After while an
// ops scrape stays reachable.
func TestEndToEndRateLimit429(t *testing.T) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 9, TopTopics: 3, SubPerTopic: 2, PagesPerLeaf: 15})
	e, err := core.Open(core.Config{
		Dir:    t.TempDir(),
		Source: corpusSource{c},
		KV:     kvstore.Options{Sync: kvstore.SyncNever},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.NewWith(e, server.Config{RatePerSec: 0.001, Burst: 3}))
	t.Cleanup(func() {
		ts.Close()
		e.Close()
	})
	cl := client.New(ts.URL)

	var ok, limited int
	for i := 0; i < 10; i++ {
		_, err := cl.Themes()
		switch {
		case err == nil:
			ok++
		case strings.Contains(err.Error(), "(429)"):
			limited++
			// The typed error is the load harness's shed/lost oracle: it
			// must carry the status code and the Retry-After hint, not
			// just a matchable string.
			var ae *client.APIError
			if !errors.As(err, &ae) {
				t.Fatalf("429 is not an *APIError: %v", err)
			}
			if ae.Status != 429 || ae.RetryAfter == "" {
				t.Fatalf("APIError{Status: %d, RetryAfter: %q}, want 429 with a hint", ae.Status, ae.RetryAfter)
			}
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if ok != 3 || limited != 7 {
		t.Fatalf("ok/limited = %d/%d, want 3/7 (burst then dry)", ok, limited)
	}
	if _, err := cl.Metrics(); err != nil {
		t.Fatalf("ops endpoint throttled with the client: %v", err)
	}
}

func TestPrivacyOverHTTP(t *testing.T) {
	c, e, cl := newTestServer(t)
	cl.Register(1, "alice")
	cl.Register(2, "bob")
	var content []*webcorpus.Page
	for _, pid := range c.LeafPages[c.Leaves()[0].ID] {
		if p := c.Page(pid); !p.Front {
			content = append(content, p)
		}
	}
	cl.Visit(1, content[0].URL, "", tBase, "private")
	cl.Visit(1, content[1].URL, "", tBase, "off")
	e.DrainBackground()

	st, _ := cl.Status()
	if st.Visits != 1 {
		t.Fatalf("Visits = %d: off-mode visit recorded", st.Visits)
	}
	// Bob cannot find alice's private page.
	words := strings.Fields(content[0].Text)
	var q []string
	for _, w := range words {
		if strings.Contains(w, "_") {
			q = append(q, w)
			if len(q) == 3 {
				break
			}
		}
	}
	hits, _ := cl.Search(2, strings.Join(q, " "), 20)
	for _, h := range hits {
		if h.URL == content[0].URL {
			t.Fatal("private page visible to another user over HTTP")
		}
	}
}
