package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"memex/internal/events"
	"memex/internal/sim"
	"memex/internal/text"
	"memex/internal/webcorpus"
)

// checkIndexStatistics compares the index's collection statistics with a
// reference text.Corpus counted from the tf/ records themselves: N is the
// number of decodable records, and every page's vector weighs bit-for-bit
// the same under both. Every term the ingest path interns occurs in some
// page's vector, so a DF off by one anywhere moves a weight somewhere.
func checkIndexStatistics(t *testing.T, e *Engine) {
	t.Helper()
	e.withView(func(view *DerivedView) {
		ref := text.NewCorpus()
		var pages []int64
		view.sn.Range(func(key string, raw []byte) bool {
			if page, ok := pageOfTFKey(key); ok {
				if tf := decodeCounts(e.dict, raw); tf.IDs != nil {
					ref.AddDoc(tf)
					pages = append(pages, page)
				}
			}
			return true
		})
		slices.Sort(pages)
		if len(pages) == 0 {
			t.Fatal("no tf/ records to check against")
		}
		if got := e.idx.Docs(); got != len(pages) {
			t.Fatalf("index N = %d, decodable tf/ records = %d", got, len(pages))
		}
		if claimed := fetchedPages(e); !slices.Equal(claimed, pages) {
			t.Fatalf("claimed pages %v, tf/ records %v", claimed, pages)
		}
		for _, page := range pages {
			raw := view.TermCounts(page)
			if got, want := e.idx.TFIDF(raw), ref.TFIDF(raw); !reflect.DeepEqual(got, want) {
				t.Fatalf("page %d: index weights %v, reference corpus weights %v", page, got, want)
			}
		}
	})
}

func TestIndexStatisticsMatchRecords(t *testing.T) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 9, TopTopics: 3, SubPerTopic: 2, PagesPerLeaf: 15})
	tr := sim.Simulate(c, sim.Config{Seed: 10, Users: 6, Days: 4})
	cfg := Config{Dir: t.TempDir(), Source: corpusSource{c}}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range tr.Users {
		e.RegisterUser(u.ID, u.Name)
	}
	for _, v := range tr.Visits {
		var ref string
		if v.Referrer != 0 {
			ref = c.Page(v.Referrer).URL
		}
		if err := e.RecordVisit(v.User, c.Page(v.Page).URL, ref, v.Time, events.Community); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range tr.Bookmarks {
		if err := e.AddBookmark(b.User, c.Page(b.Page).URL, b.Folder, b.Time); err != nil {
			t.Fatal(err)
		}
	}
	e.DrainBackground()
	checkIndexStatistics(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	checkIndexStatistics(t, e2)
}

// TestVisitOnlyUserSurvivesRestart: a registered user who surfs but never
// bookmarks is known only to the users table; reopen must bring them back
// as a counted user and as a Recommend peer.
func TestVisitOnlyUserSurvivesRestart(t *testing.T) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 5, TopTopics: 3, SubPerTopic: 2, PagesPerLeaf: 20})
	cfg := Config{Dir: t.TempDir(), Source: corpusSource{c}}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	leaves := c.Leaves()
	shared, other := c.LeafPages[leaves[0].ID], c.LeafPages[leaves[2].ID]
	for u := int64(1); u <= 3; u++ {
		e.RegisterUser(u, fmt.Sprintf("user%d", u))
	}
	at := func(i int) time.Time { return tBase.Add(time.Duration(i) * time.Minute) }
	for i := 0; i < 8; i++ {
		// Users 1 and 3 file what they read; user 2 only surfs — user 1's
		// pages plus four more that only a peer could recommend.
		e.AddBookmark(1, c.Page(shared[i]).URL, "/stuff", tBase)
		e.RecordVisit(1, c.Page(shared[i]).URL, "", at(i), events.Community)
		e.AddBookmark(3, c.Page(other[i]).URL, "/stuff", tBase)
		e.RecordVisit(3, c.Page(other[i]).URL, "", at(i), events.Community)
		e.RecordVisit(2, c.Page(shared[i+4]).URL, "", at(i), events.Community)
	}
	e.DrainBackground()
	e.RebuildThemes()
	users, recs := e.Status().Users, e.Recommend(1, 5, true)
	if users != 3 || len(recs) == 0 {
		t.Fatalf("before restart: %d users, recommendations %v", users, recs)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	e2.RebuildThemes()
	if got := e2.Status().Users; got != users {
		t.Fatalf("Users = %d after restart, want %d", got, users)
	}
	if got := e2.Recommend(1, 5, true); !reflect.DeepEqual(got, recs) {
		t.Fatalf("recommendations changed across restart:\n before %v\n after  %v", recs, got)
	}
}

// derivedPublished reports whether the page holds the fetch claim: its
// derived stats are (or are being) archived, by this process or recovered
// at Open.
func (e *Engine) derivedPublished(pageID int64) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.meta[pageID].fetched
}

// oneSource serves a single page.
type oneSource struct{ page Content }

func (s oneSource) Lookup(url string) (Content, bool) { return s.page, url == s.page.URL }

// TestCorruptTermRecordIsRefetched: a tf/ record that no longer decodes
// must not count as "fetched" — the page's next visit re-fetches it and
// republishes over the bad blob.
func TestCorruptTermRecordIsRefetched(t *testing.T) {
	page := Content{URL: "http://zoo.example/quagga", Title: "Quagga", Text: "zebra quagga savannah"}
	cfg := Config{Dir: t.TempDir(), Source: oneSource{page}}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := e.ensurePage(page.URL)
	if err != nil {
		t.Fatal(err)
	}
	b := e.vs.BeginSized(0)
	b.Put(tfKey(id), []byte{0xff})
	if err := b.Publish(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.derivedPublished(id) || e.Status().PagesIndexed != 0 {
		t.Fatal("undecodable tf/ record was claimed at reopen")
	}
	e.RegisterUser(1, "alice")
	if err := e.RecordVisit(1, page.URL, "", tBase, events.Community); err != nil {
		t.Fatal(err)
	}
	e.DrainBackground()
	if hits := e.Search(1, "quagga", 5); len(hits) != 1 || hits[0].ID != id || hits[0].Title != page.Title {
		t.Fatalf("revisited page not searchable: %v", hits)
	}
	if got := e.Status().PagesFetched; got != 1 {
		t.Fatalf("PagesFetched = %d, want 1", got)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// The republished record replaced the bad blob for good.
	e, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if !e.derivedPublished(id) || len(e.Search(1, "quagga", 5)) != 1 {
		t.Fatal("republished record did not survive the next restart")
	}
}
