package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"memex/internal/events"
	"memex/internal/kvstore"
)

// A page's title is a fetched fact: it lives in the page's tf/ record,
// published with its terms and links, and in RAM as pageRec.title. These
// tests hold that one copy against the readers that used to keep their
// own — folder entries, the export — and against a crash, a long title, a
// link no row can hold and a refetch backlog larger than the event queue.
// A bookmark file's title for an entry is the user's, not a fetched fact:
// it lives in the entry's bookmark row.

// titledSource serves <base>/p<i> as a page titled "Title i" with a term
// of its own, "unique<i>".
type titledSource struct{ base string }

func (s titledSource) url(i int) string { return fmt.Sprintf("%s/p%d", s.base, i) }

func (s titledSource) title(i int) string { return fmt.Sprint("Title ", i) }

func (s titledSource) Lookup(url string) (Content, bool) {
	var i int
	if n, err := fmt.Sscanf(url, s.base+"/p%d", &i); n != 1 || err != nil {
		return Content{}, false
	}
	return Content{URL: url, Title: s.title(i), Text: fmt.Sprintf("unique%d archived trails", i)}, true
}

// exportOf renders user's bookmark export.
func exportOf(t *testing.T, e *Engine, user int64) string {
	t.Helper()
	var buf bytes.Buffer
	if err := e.ExportBookmarks(user, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestExportSameAcrossReopen: a page bookmarked before it is fetched
// exports with the title the fetch found, and the export is the same
// after Close and reopen.
func TestExportSameAcrossReopen(t *testing.T) {
	page := Content{URL: "http://zoo.example/okapi", Title: "Okapi", Text: "okapi rainforest giraffid"}
	cfg := Config{Dir: t.TempDir(), Source: oneSource{page}}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.RegisterUser(1, "alice")
	if err := e.AddBookmark(1, page.URL, "/animals", tBase); err != nil {
		t.Fatal(err)
	}
	e.DrainBackground()
	before := exportOf(t, e, 1)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if e, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	after := exportOf(t, e, 1)
	if before != after {
		t.Fatalf("the export changed across a reopen:\n%s\nthen\n%s", before, after)
	}
	if !strings.Contains(after, ">Okapi</A>") {
		t.Fatalf("the export does not title the page:\n%s", after)
	}
}

// TestImportKeepsBookmarkTitles: an imported bookmark exports under the
// title its file gave it — a page the source cannot serve as much as one
// it can, whose fetched title does not replace the user's — and so does it
// after a reopen, which reads the title back from the bookmark's row. A
// bookmark filed without a file exports under its page's fetched title.
func TestImportKeepsBookmarkTitles(t *testing.T) {
	src := titledSource{"http://zoo.example"}
	cfg := Config{Dir: t.TempDir(), Source: src}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { e.Close() }()
	file := fmt.Sprintf(`<!DOCTYPE NETSCAPE-Bookmark-file-1>
<DL><p>
<DT><A HREF="http://intranet.example/wiki">Team wiki</A>
<DT><A HREF="%s">My favourite page</A>
</DL><p>
`, src.url(0))
	if n, err := e.ImportBookmarks(1, strings.NewReader(file)); err != nil || n != 2 {
		t.Fatalf("import: %d entries, %v", n, err)
	}
	if err := e.AddBookmark(1, src.url(1), "/animals", tBase); err != nil {
		t.Fatal(err)
	}
	e.DrainBackground()
	for life := 1; life <= 2; life++ {
		out := exportOf(t, e, 1)
		for _, want := range []string{">Team wiki</A>", ">My favourite page</A>", ">" + src.title(1) + "</A>"} {
			if !strings.Contains(out, want) {
				t.Fatalf("life %d: the export lacks %q:\n%s", life, want, out)
			}
		}
		if strings.Contains(out, ">"+src.title(0)+"</A>") {
			t.Fatalf("life %d: the fetched title replaced the user's:\n%s", life, out)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if e, err = Open(cfg); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLongTitleGroupIndexesEveryPage: a title too long for a table row
// (kvstore.MaxKV) is no row's business: the page's group, twenty other
// pages with it, indexes all of them, fails no fetch, and the long title
// is searchable before and after a reopen, which reads it back from the
// cold tier.
func TestLongTitleGroupIndexesEveryPage(t *testing.T) {
	long := "Okapi " + strings.Repeat("o", 1200)
	pages := pagesSource{}
	var urls []string
	for i := 0; i <= 20; i++ {
		c := Content{URL: fmt.Sprintf("http://zoo.example/p%d", i), Title: fmt.Sprint("Page ", i), Text: fmt.Sprintf("unique%d rainforest", i)}
		if i == 0 {
			c.Title = long
		}
		pages[c.URL] = c
		urls = append(urls, c.URL)
	}
	src := newPluggedSource(pages)
	cfg := Config{Dir: t.TempDir(), Source: src, GCInterval: -1, workers: 1}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.RegisterUser(1, "alice")
	src.group(t, e, func() {
		for _, url := range urls {
			if err := e.RecordVisit(1, url, "", tBase, events.Community); err != nil {
				t.Fatal(err)
			}
		}
	})
	if st := e.Status(); st.PagesIndexed != len(urls) || st.FetchesFailed != 0 {
		t.Fatalf("PagesIndexed %d, FetchesFailed %d; want %d and 0", st.PagesIndexed, st.FetchesFailed, len(urls))
	}
	check := func(life string) {
		if hits := e.Search(1, "unique0", 3); len(hits) != 1 || hits[0].Title != long {
			t.Fatalf("%s: the long-titled page searches as %+v", life, hits)
		}
	}
	check("first life")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if e, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	check("after reopen")
}

// TestCrashCopyTitlesComeBack: a crash image taken with the fold demon off
// holds the rows and no tf/ record, so no title either. Once the reopened
// copy has refetched its pages, every page searches with its title again,
// and the bookmark export is the running engine's, title for title.
func TestCrashCopyTitlesComeBack(t *testing.T) {
	src := titledSource{base: "http://titles.example"}
	const pages = 40
	cfg := Config{Dir: t.TempDir(), Source: src, GCInterval: -1}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.RegisterUser(1, "alice")
	if err := e.AddBookmark(1, src.url(7), "/kept", tBase); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		if err := e.RecordVisit(1, src.url(i), "", tBase, events.Community); err != nil {
			t.Fatal(err)
		}
	}
	e.DrainBackground()
	want := exportOf(t, e, 1)
	crash := t.TempDir()
	if err := copyDir(e, crash); err != nil {
		t.Fatal(err)
	}

	cfg.Dir = crash
	e2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	e2.DrainBackground()
	for i := 0; i < pages; i++ {
		if hits := e2.Search(1, fmt.Sprint("unique", i), 3); len(hits) != 1 || hits[0].Title != src.title(i) {
			t.Fatalf("page %d searches as %+v after the crash, want one hit titled %q", i, hits, src.title(i))
		}
	}
	if got := exportOf(t, e2, 1); got != want || !strings.Contains(got, ">"+src.title(7)+"</A>") {
		t.Fatalf("the export before the crash:\n%s\nafter it:\n%s", want, got)
	}
}

// heldTitles is titledSource with every lookup held until gate closes.
type heldTitles struct {
	titledSource
	gate chan struct{}
}

func (s heldTitles) Lookup(url string) (Content, bool) {
	<-s.gate
	return s.titledSource.Lookup(url)
}

// TestRefetchBacklogIsNotShed: Open finds forty visited pages without a
// tf/ record and an event queue of sixteen. The refetches are the
// analyzers' backlog, not queued events, so the queue sheds none of them:
// all forty are fetched and indexed, and nothing is dropped. While the
// source holds the fetches, Pressure.Backlog counts all forty and the
// queue depth none; once they are done the backlog reads 0.
func TestRefetchBacklogIsNotShed(t *testing.T) {
	src := heldTitles{titledSource{base: "http://refetch.example"}, make(chan struct{})}
	const pages = 40
	cfg := Config{Dir: t.TempDir(), Source: oneSource{}, queueSize: 2 * pages}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.RegisterUser(1, "alice")
	for i := 0; i < pages; i++ {
		if err := e.RecordVisit(1, src.url(i), "", tBase, events.Community); err != nil {
			t.Fatal(err)
		}
	}
	e.DrainBackground()
	if st := e.Status(); st.PagesIndexed != 0 {
		t.Fatalf("life 1 indexed %d pages its source lacks", st.PagesIndexed)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.Source, cfg.queueSize = src, 16
	if e, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if p := e.Pressure(); p.Backlog != pages || p.QueueDepth != 0 {
		t.Fatalf("at open: backlog %d, queue depth %d; want %d, 0", p.Backlog, p.QueueDepth, pages)
	}
	close(src.gate)
	e.DrainBackground()
	if st := e.Status(); st.PagesIndexed != pages || st.PagesFetched != pages || st.EventsDropped != 0 || st.Backlog != 0 {
		t.Fatalf("after reopen: %d indexed, %d fetched, %d events dropped, backlog %d; want %d, %d, 0, 0",
			st.PagesIndexed, st.PagesFetched, st.EventsDropped, st.Backlog, pages, pages)
	}
}

// TestFolderReadersUnderBookmarks: ExportBookmarks and Discover read the
// user's folder tree while AddBookmark files into it. Both read it under
// e.mu, so the race detector finds nothing, and every export parses.
func TestFolderReadersUnderBookmarks(t *testing.T) {
	c, e := testWorld(t)
	e.RegisterUser(1, "alice")
	leaves := c.Leaves()
	var focus []string
	for i, leaf := range leaves[:2] {
		n := 0
		for _, pid := range c.LeafPages[leaf.ID] {
			if p := c.Page(pid); !p.Front && n < 6 {
				folder := "/Else"
				if i == 0 {
					folder = "/Focus"
					focus = append(focus, p.URL)
				}
				if err := e.AddBookmark(1, p.URL, folder, tBase); err != nil {
					t.Fatal(err)
				}
				n++
			}
		}
	}
	e.DrainBackground()
	e.RetrainClassifiers()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 60; i++ {
			if err := e.AddBookmark(1, focus[i%len(focus)], fmt.Sprintf("/Focus/sub%d", i%3), tBase); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for reads := 0; ; reads++ {
		select {
		case <-done:
			wg.Wait()
			t.Logf("%d rounds of export and discover", reads)
			return
		default:
		}
		if export := exportOf(t, e, 1); !strings.Contains(export, "<H3>Focus</H3>") {
			t.Fatalf("the export lost a folder:\n%s", export)
		}
		e.Discover(1, "/Focus", 4, 2)
	}
}

// TestOverlongLinkIsDropped: a fetched page links to a URL and to
// http://zoo.example/tapir. A link whose URL no pages row can hold is
// dropped, not the page: it is indexed with its other link, and its group
// fails no fetch. A link is dropped only when its URL has no row yet and
// is too long for one with the id it would take: a URL one byte short of
// the bound with a one-byte id keeps its link, whether it is new or a
// visit gave it its row first.
func TestOverlongLinkIsDropped(t *testing.T) {
	edge := "http://zoo.example/" + strings.Repeat("x", kvstore.MaxKV-len(pagesPrefix)-len("http://zoo.example/")-1)
	for _, tc := range []struct {
		name    string
		link    string
		visited bool // the link's URL is visited, so has its row, first
		edges   int
	}{
		{"too long for any row", "http://zoo.example/" + strings.Repeat("x", kvstore.MaxKV), false, 1},
		{"fits with the id it takes", edge, false, 2},
		{"visited first", edge, true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			page := Content{URL: "http://zoo.example/okapi", Title: "Okapi", Text: "okapi rainforest", Links: []string{tc.link, "http://zoo.example/tapir"}}
			e, err := Open(Config{Dir: t.TempDir(), Source: oneSource{page}, GCInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			e.RegisterUser(1, "alice")
			if tc.visited {
				if err := e.RecordVisit(1, tc.link, "", tBase, events.Community); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.RecordVisit(1, page.URL, "", tBase, events.Community); err != nil {
				t.Fatal(err)
			}
			e.DrainBackground()
			if st := e.Status(); st.PagesIndexed != 1 || st.FetchesFailed != 0 || st.GraphEdges != tc.edges {
				t.Fatalf("PagesIndexed %d, FetchesFailed %d, GraphEdges %d; want 1, 0, %d", st.PagesIndexed, st.FetchesFailed, st.GraphEdges, tc.edges)
			}
			if hits := e.Search(1, "okapi", 3); len(hits) != 1 || hits[0].Title != "Okapi" {
				t.Fatalf("the page searches as %+v", hits)
			}
		})
	}
}
