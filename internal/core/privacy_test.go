package core

import (
	"slices"
	"testing"
	"time"

	"memex/internal/events"
	"memex/internal/kvstore"
)

// withPage serves one page beside what its base source serves.
type withPage struct {
	PageSource
	page Content
}

func (s withPage) Lookup(url string) (Content, bool) {
	if url == s.page.URL {
		return s.page, true
	}
	return s.PageSource.Lookup(url)
}

// TestPrivateVisitsStayOutOfOtherUsersTrails: user 2 files two pages of
// one leaf into /Work and visits them for the community; user 1 visits an
// intranet page privately three times, coming from user 2's first page,
// and the intranet page links back to it. User 2's trails — pages, edges
// and popular pages — never name the intranet page, before and after a
// Close and reopen, and the referrer's lnk/ record never holds it: the
// private visits' referrer edges are not published, and the page's own
// out-link, which puts it beside user 2's trail in the link graph, does
// not make it visible.
func TestPrivateVisitsStayOutOfOtherUsersTrails(t *testing.T) {
	c, _ := testWorld(t)
	leaf := c.Leaves()[0]
	first, second := c.Page(c.LeafPages[leaf.ID][0]), c.Page(c.LeafPages[leaf.ID][1])
	const secret = "http://intranet.example.org/alice/secret-plan"
	src := withPage{corpusSource{c}, Content{URL: secret, Title: "secret plan", Text: "the bluebird plan", Links: []string{first.URL}}}
	cfg := Config{Dir: t.TempDir(), Source: src, KV: kvstore.Options{Sync: kvstore.SyncGroup}}
	e, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer func() { e.Close() }()
	e.RegisterUser(1, "alice")
	e.RegisterUser(2, "bob")
	for i, p := range []string{first.URL, second.URL} {
		at := tBase.Add(time.Duration(i) * time.Minute)
		if err := e.AddBookmark(2, p, "/Work", at); err != nil {
			t.Fatal(err)
		}
		if err := e.RecordVisit(2, p, "", at, events.Community); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := e.RecordVisit(1, secret, first.URL, tBase.Add(time.Duration(10+i)*time.Minute), events.Private); err != nil {
			t.Fatal(err)
		}
	}
	e.DrainBackground()

	check := func(life string) {
		t.Helper()
		e.mu.RLock()
		id, ok := e.idByURL[secret]
		fetched := e.meta[id].fetched
		from := e.idByURL[first.URL]
		e.mu.RUnlock()
		if !ok || !fetched {
			t.Fatalf("%s: the intranet page is not archived (known %v, fetched %v)", life, ok, fetched)
		}
		e.withView(func(v *DerivedView) {
			if slices.Contains(v.Out(from), id) {
				t.Errorf("%s: the referrer's lnk/ record holds the privately visited page", life)
			}
			if !slices.Contains(v.In(from), id) {
				t.Errorf("%s: the intranet page's own link is missing: the fixture lost its point", life)
			}
		})
		ctx := e.Trails(2, "/Work", 50)
		if len(ctx.Pages) == 0 {
			t.Fatalf("%s: user 2 has no trail", life)
		}
		for _, list := range [][]PageInfo{ctx.Pages, ctx.Popular} {
			for _, p := range list {
				if p.URL == secret {
					t.Errorf("%s: Trails(2, /Work) names user 1's private page: %+v", life, ctx)
				}
			}
		}
		for _, edge := range ctx.Edges {
			if edge[0] == id || edge[1] == id {
				t.Errorf("%s: Trails(2, /Work) has an edge to user 1's private page: %v", life, edge)
			}
		}
		if hits := e.Search(2, "bluebird", 10); len(hits) != 0 {
			t.Errorf("%s: user 2's search names %v", life, hits)
		}
		if hits := e.Search(1, "bluebird", 10); len(hits) != 1 || hits[0].URL != secret {
			t.Errorf("%s: user 1's search = %v, want the page they visited", life, hits)
		}
	}
	check("first life")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if e, err = Open(cfg); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	e.DrainBackground()
	check("after reopen")
}
