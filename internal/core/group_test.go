package core

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"memex/internal/events"
)

// pagesSource serves a fixed set of pages by URL.
type pagesSource map[string]Content

func (s pagesSource) Lookup(url string) (Content, bool) {
	c, ok := s[url]
	return c, ok
}

// pluggedSource serves inner and counts lookups per URL, except that a
// Lookup of plug signals entered and waits for release: with one analyzer
// parked there, every event queued meanwhile is left to form the next
// group, whole.
type pluggedSource struct {
	inner   PageSource
	plug    string
	entered chan struct{}
	release chan struct{}

	mu      sync.Mutex
	lookups map[string]int
}

func newPluggedSource(inner PageSource) *pluggedSource {
	return &pluggedSource{
		inner: inner, plug: "http://plug.example/",
		entered: make(chan struct{}), release: make(chan struct{}),
		lookups: map[string]int{},
	}
}

func (s *pluggedSource) Lookup(url string) (Content, bool) {
	s.mu.Lock()
	s.lookups[url]++
	s.mu.Unlock()
	if url == s.plug {
		close(s.entered)
		<-s.release
	}
	return s.inner.Lookup(url)
}

// group queues the events that visits pushes as one analyzer group: a
// visit to the plug parks the engine's one analyzer, visits runs, and the
// analyzer is released to take everything queued at once. The plug page
// is not served, so its own group fetches and publishes nothing.
func (s *pluggedSource) group(t *testing.T, e *Engine, visits func()) {
	t.Helper()
	if err := e.RecordVisit(1, s.plug, "", tBase, events.Community); err != nil {
		t.Fatal(err)
	}
	<-s.entered
	visits()
	close(s.release)
	e.DrainBackground()
}

// TestGroupFetchesRepeatedPageOnce: a page named by two events of one
// group is looked up once, claimed once and published once — one tf/
// record, one indexed document — and both visits are logged.
func TestGroupFetchesRepeatedPageOnce(t *testing.T) {
	page := Content{URL: "http://zoo.example/okapi", Title: "Okapi", Text: "okapi rainforest giraffid", Links: []string{"http://zoo.example/bongo"}}
	src := newPluggedSource(oneSource{page})
	e, err := Open(Config{Dir: t.TempDir(), Source: src, GCInterval: -1, workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.RegisterUser(1, "alice")
	e.RegisterUser(2, "bob")
	wm := e.vs.Watermark()
	src.group(t, e, func() {
		for user := int64(1); user <= 2; user++ {
			if err := e.RecordVisit(user, page.URL, "", tBase.Add(time.Minute), events.Community); err != nil {
				t.Fatal(err)
			}
		}
	})
	if n := src.lookups[page.URL]; n != 1 {
		t.Fatalf("the page was looked up %d times in one group, want once", n)
	}
	st := e.Status()
	if st.PagesFetched != 1 || st.PagesIndexed != 1 || st.Visits != 3 || st.FetchesFailed != 0 {
		t.Fatalf("PagesFetched %d, PagesIndexed %d, Visits %d, FetchesFailed %d; want 1, 1, 3, 0",
			st.PagesFetched, st.PagesIndexed, st.Visits, st.FetchesFailed)
	}
	if got := e.vs.Watermark() - wm; got != 1 {
		t.Fatalf("the group published %d times, want once", got)
	}
	okapi := pageID(t, e, page.URL)
	e.withView(func(v *DerivedView) {
		if v.TermCounts(okapi).IDs == nil || len(v.Out(okapi)) != 1 {
			t.Fatalf("okapi's records: terms %v, out-links %v", v.TermCounts(okapi), v.Out(okapi))
		}
	})
}

// TestGroupPublishReadErrorReleasesEveryClaim: a group whose publish meets
// an unreadable record publishes nothing at all — not the innocent page's
// records, not the community edge it carries — and releases every claim
// it took, with the titles it set. FetchesFailed counts both claimed
// pages; once the record reads again, the next Open refetches them, titles
// included.
func TestGroupPublishReadErrorReleasesEveryClaim(t *testing.T) {
	okapi := Content{URL: "http://zoo.example/okapi", Title: "Okapi", Text: "okapi rainforest giraffid", Links: []string{"http://zoo.example/bongo"}}
	tapir := Content{URL: "http://zoo.example/tapir", Title: "Tapir", Text: "tapir rainforest browsing"}
	pages := pagesSource{okapi.URL: okapi, tapir.URL: tapir}
	src := newPluggedSource(pages)
	cfg := Config{Dir: t.TempDir(), Source: src, GCInterval: -1, workers: 1}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { e.Close() }()
	e.RegisterUser(1, "alice")
	// An edge okapi → duiker, folded to the cold tier; then okapi's lnk/
	// record there made unreadable: part 0 with a part count of zero.
	if err := e.RecordVisit(1, "http://zoo.example/duiker", okapi.URL, tBase, events.Community); err != nil {
		t.Fatal(err)
	}
	e.DrainBackground()
	if _, err := e.vs.Fold(); err != nil {
		t.Fatal(err)
	}
	okapiID := pageID(t, e, okapi.URL)
	coldKey := coldPart0Key(lnkKey(okapiID))
	good, ok, err := e.kv.Get(coldKey)
	if !ok || err != nil {
		t.Fatalf("no cold record %q (err %v)", coldKey, err)
	}
	good = bytes.Clone(good)
	if err := e.kv.Put(coldKey, []byte{0}); err != nil {
		t.Fatal(err)
	}

	before := e.Status()
	src.group(t, e, func() {
		for _, url := range []string{okapi.URL, tapir.URL} {
			if err := e.RecordVisit(1, url, "http://zoo.example/duiker", tBase.Add(time.Minute), events.Community); err != nil {
				t.Fatal(err)
			}
		}
	})
	st := e.Status()
	if st.Version.Watermark != before.Version.Watermark || st.Version.Entries != before.Version.Entries || st.GraphEdges != before.GraphEdges {
		t.Fatalf("something was published: watermark %d → %d, entries %d → %d, edges %d → %d",
			before.Version.Watermark, st.Version.Watermark, before.Version.Entries, st.Version.Entries, before.GraphEdges, st.GraphEdges)
	}
	tapirID := pageID(t, e, tapir.URL)
	for _, id := range []int64{okapiID, tapirID} {
		e.mu.RLock()
		title := e.meta[id].title
		e.mu.RUnlock()
		if e.derivedPublished(id) || title != "" {
			t.Fatalf("page %d kept its claim, or its title %q, after the failed group", id, title)
		}
	}
	if st.FetchesFailed != before.FetchesFailed+2 || st.PagesFetched != before.PagesFetched || st.PagesIndexed != before.PagesIndexed {
		t.Fatalf("FetchesFailed %d → %d, PagesFetched %d → %d, PagesIndexed %d → %d; want two more failures and nothing fetched or indexed",
			before.FetchesFailed, st.FetchesFailed, before.PagesFetched, st.PagesFetched, before.PagesIndexed, st.PagesIndexed)
	}
	if st.Visits != before.Visits+3 {
		t.Fatalf("%d visits logged, %d before: want the plug's and both of the group's", st.Visits, before.Visits)
	}

	if err := e.kv.Put(coldKey, good); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.Source = pages
	if e, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	e.DrainBackground()
	if st := e.Status(); st.PagesFetched != 2 || st.FetchesFailed != 0 {
		t.Fatalf("after reopen: PagesFetched %d, FetchesFailed %d; want both pages refetched", st.PagesFetched, st.FetchesFailed)
	}
	for _, p := range []Content{okapi, tapir} {
		if hits := e.Search(1, strings.ToLower(p.Title), 5); len(hits) != 1 || hits[0].Title != p.Title {
			t.Fatalf("search %q after reopen: %v", p.Title, hits)
		}
	}
	e.withView(func(v *DerivedView) {
		duiker := pageID(t, e, "http://zoo.example/duiker")
		if in := v.In(tapirID); len(in) != 1 || in[0] != duiker {
			t.Fatalf("tapir's in-links after reopen: %v, want the visit's referrer %d", in, duiker)
		}
	})
}

// TestDrainWakesOnCompletion: DrainBackground returns at once over an idle
// engine, and otherwise as soon as the analyzer that finishes the last
// outstanding group wakes it. A drain that polled every 2 ms would spend
// at least one interval on each of the revisits below.
func TestDrainWakesOnCompletion(t *testing.T) {
	page := Content{URL: "http://zoo.example/okapi", Title: "Okapi", Text: "okapi rainforest giraffid"}
	e, err := Open(Config{Dir: t.TempDir(), Source: oneSource{page}, GCInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.RegisterUser(1, "alice")
	done := make(chan struct{})
	go func() {
		e.DrainBackground()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("a drain over an idle engine did not return")
	}
	if !e.caughtUp() {
		t.Fatal("an idle engine has work outstanding")
	}

	const rounds = 50
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if err := e.RecordVisit(1, page.URL, "", tBase.Add(time.Duration(i)*time.Minute), events.Community); err != nil {
			t.Fatal(err)
		}
		e.DrainBackground()
	}
	if elapsed := time.Since(start); elapsed >= rounds*2*time.Millisecond {
		t.Fatalf("%d visits, each drained, took %v: the drains waited past their work", rounds, elapsed)
	}
	if st := e.Status(); st.PagesFetched != 1 || st.Visits != rounds {
		t.Fatalf("PagesFetched %d, Visits %d; want 1 and %d", st.PagesFetched, st.Visits, rounds)
	}
}

// coldPart0Key is the kvstore key of a derived record's part 0 in the cold
// tier: vc/r/ and the key, each 0x00 in it escaped as 0x00 0xff.
func coldPart0Key(key string) []byte {
	return []byte("vc/r/" + strings.ReplaceAll(key, "\x00", "\x00\xff"))
}
