package core

import (
	"fmt"
	"sort"
	"testing"

	"memex/internal/events"
	"memex/internal/sim"
	"memex/internal/webcorpus"
)

// tableRows renders every record of the engine's visits, bookmarks and
// pages tables, decoded, sorted, per table.
func tableRows(t *testing.T, e *Engine) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	render := func(table string, r any) bool {
		out[table] = append(out[table], fmt.Sprintf("%+v", r))
		return true
	}
	for _, err := range []error{
		visitsTable.scanAll(e.kv, func(r visitRow) bool { return render("visits", r) }),
		bookmarksTable.scanAll(e.kv, func(r bookmarkRow) bool { return render("bookmarks", r) }),
		pagesTable.scanAll(e.kv, func(r pageRow) bool { return render("pages", r) }),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, rows := range out {
		sort.Strings(rows)
	}
	return out
}

// TestCrashCopyOfWorldLargerThanPoolKeepsEveryRow: a community archive
// that outgrows its 8-page buffer pool, checkpointed half way through the
// trace, is copied after the analyzers drain — a crash image, no Close —
// and the copy reopens with every visits, bookmarks and pages row the
// running engine acknowledged. The version-GC demon is off, so no fold
// checkpoints behind the test's back.
func TestCrashCopyOfWorldLargerThanPoolKeepsEveryRow(t *testing.T) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 16, TopTopics: 4, SubPerTopic: 3, PagesPerLeaf: 30})
	tr := sim.Simulate(c, sim.Config{Seed: 17, Users: 30, Days: 10})
	const pool = 8
	cfg := Config{
		Dir: t.TempDir(), Source: corpusSource{c},
		poolPages:  pool,
		queueSize:  2 * (len(tr.Visits) + len(tr.Bookmarks)),
		GCInterval: -1,
	}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, u := range tr.Users {
		if err := e.RegisterUser(u.ID, u.Name); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range tr.Bookmarks {
		if err := e.AddBookmark(b.User, c.Page(b.Page).URL, b.Folder, b.Time); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range tr.Visits {
		if i == len(tr.Visits)/2 {
			e.DrainBackground()
			if err := e.kv.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.RecordVisit(v.User, c.Page(v.Page).URL, "", v.Time, events.Community); err != nil {
			t.Fatal(err)
		}
	}
	e.DrainBackground()
	st := e.Status()
	if st.KV.Pages <= 2*pool || st.KV.Evictions == 0 {
		t.Fatalf("%d pages, %d evictions: the archive must outgrow the %d-page pool", st.KV.Pages, st.KV.Evictions, pool)
	}
	want := tableRows(t, e)
	dst := t.TempDir()
	if err := copyDir(e, dst); err != nil {
		t.Fatal(err)
	}

	cfg.Dir = dst
	e2, err := Open(cfg)
	if err != nil {
		t.Fatalf("the crash image does not open: %v", err)
	}
	defer e2.Close()
	got := tableRows(t, e2)
	for name, rows := range want {
		have := map[string]bool{}
		for _, r := range got[name] {
			have[r] = true
		}
		missing := 0
		for _, r := range rows {
			if !have[r] {
				missing++
			}
		}
		if missing > 0 || len(got[name]) != len(rows) {
			t.Errorf("%s: %d of %d acknowledged rows missing from the crash image, which holds %d", name, missing, len(rows), len(got[name]))
		}
	}
	t.Logf("%d visits, %d bookmarks, %d pages over %d kvstore pages", len(want["visits"]), len(want["bookmarks"]), len(want["pages"]), st.KV.Pages)
}

// loginSource serves the corpus except every fifth page, which sits behind
// a login: people visit it and follow its links, but the archive can never
// fetch it.
type loginSource struct{ corpusSource }

func (s loginSource) Lookup(url string) (Content, bool) {
	if s.c.ByURL[url]%5 == 0 {
		return Content{}, false
	}
	return s.corpusSource.Lookup(url)
}

// TestCrashCopyKeepsReferrerEdges: a visit's referrer→page transition is
// link evidence of its own. When the referrer is a page the archive cannot
// fetch, the visit row is the edge's only durable source: RecordVisit
// publishes the edge to the version store's hot tier, which reaches disk
// only in a fold. A crash image taken with the version-GC demon off holds
// the rows and no derived record at all; once it reopens and drains, every
// page's out- and in-links and GraphEdges must equal those of the same
// engine closed cleanly and reopened.
func TestCrashCopyKeepsReferrerEdges(t *testing.T) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 16, TopTopics: 3, SubPerTopic: 2, PagesPerLeaf: 20})
	tr := sim.Simulate(c, sim.Config{Seed: 17, Users: 10, Days: 4})
	cfg := Config{
		Dir: t.TempDir(), Source: loginSource{corpusSource{c}},
		queueSize:  2 * len(tr.Visits),
		GCInterval: -1,
	}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range tr.Users {
		if err := e.RegisterUser(u.ID, u.Name); err != nil {
			t.Fatal(err)
		}
	}
	behindLogin := 0
	for _, v := range tr.Visits {
		ref := ""
		if v.Referrer != 0 {
			ref = c.Page(v.Referrer).URL
			if v.Referrer%5 == 0 {
				behindLogin++
			}
		}
		if err := e.RecordVisit(v.User, c.Page(v.Page).URL, ref, v.Time, events.Community); err != nil {
			t.Fatal(err)
		}
	}
	if behindLogin == 0 {
		t.Fatal("no visit came from a page behind the login: the test checks nothing")
	}
	e.DrainBackground()
	clean, crash := cfg.Dir, t.TempDir()
	if err := copyDir(e, crash); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	reopen := func(dir string) (linkGraph, int) {
		cfg.Dir = dir
		e, err := Open(cfg)
		if err != nil {
			t.Fatalf("reopen %s: %v", dir, err)
		}
		defer e.Close()
		e.DrainBackground()
		return linkGraphOf(t, e), e.Status().GraphEdges
	}
	want, wantEdges := reopen(clean)
	got, gotEdges := reopen(crash)
	want.mustEqual(t, got)
	if gotEdges != wantEdges {
		t.Fatalf("GraphEdges = %d after the crash, %d after a clean Close", gotEdges, wantEdges)
	}
	t.Logf("%d visits, %d from a page behind the login; %d pages with link records, %d edges", len(tr.Visits), behindLogin, len(want.out), wantEdges)
}
