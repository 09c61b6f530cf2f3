package core

import (
	"fmt"
	"slices"
	"sync"
	"syscall"
	"testing"
	"time"

	"memex/internal/events"
	"memex/internal/sim"
	"memex/internal/webcorpus"
)

// linkedSource serves any URL of the form <base>/p<i> as a page with
// `links` out-links nobody else links to, so every link is never-seen.
type linkedSource struct {
	base  string
	links int
}

func (s linkedSource) url(i int) string { return fmt.Sprintf("%s/p%d", s.base, i) }

func (s linkedSource) Lookup(url string) (Content, bool) {
	var i int
	if n, err := fmt.Sscanf(url, s.base+"/p%d", &i); n != 1 || err != nil {
		return Content{}, false
	}
	c := Content{URL: url, Title: fmt.Sprint("Page ", i), Text: fmt.Sprintf("burst page number%d about archiving trails", i)}
	for l := 0; l < s.links; l++ {
		c.Links = append(c.Links, fmt.Sprintf("%s/p%d/out%d", s.base, i, l))
	}
	return c, true
}

// TestFreshPageCommitCount pins what a burst pays the kvstore, read from
// its own commit counter, as a relation that holds however the events fall
// into analyzer groups. The foreground pays one commit for a fresh page —
// its row and the visit row together — and one for a revisit. The analyzers pay
// one publish (a watermark step) per group that fetches anything, which
// holds every derived record of the group, titles included, and one
// commit per group that names a never-seen URL, which holds the rows of
// every never-seen link target of the group. Every link here is
// never-seen, so analyzer commits equal analyzer publishes, at least one
// and at most one a page, when the pages have links, and are zero when
// they have none; a revisit burst pays the analyzers nothing.
func TestFreshPageCommitCount(t *testing.T) {
	for _, links := range []int{0, 1, 6, 40} {
		t.Run(fmt.Sprint("links=", links), func(t *testing.T) {
			src := linkedSource{base: "http://burst.example", links: links}
			e, err := Open(Config{
				Dir: t.TempDir(), Source: src,
				GCInterval: -1, // a fold would commit too
			})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			e.RegisterUser(1, "alice")
			const pages = 25
			// visitAll returns the burst's analyzer commits — its commits
			// less foreground per page — and its publishes.
			visitAll := func(foreground uint64) (commits, publishes uint64) {
				before, wm := e.kv.Stats().Commits, e.vs.Watermark()
				for i := 0; i < pages; i++ {
					if err := e.RecordVisit(1, src.url(i), "", tBase, events.Community); err != nil {
						t.Fatal(err)
					}
				}
				e.DrainBackground()
				commits = e.kv.Stats().Commits - before
				if commits < pages*foreground {
					t.Fatalf("%d visits cost %d commits, fewer than the foreground's %d each", pages, commits, foreground)
				}
				return commits - pages*foreground, e.vs.Watermark() - wm
			}
			commits, publishes := visitAll(1)
			want := publishes // a commit a group: each names never-seen links
			if links == 0 {
				want = 0 // the groups name no new URL, so they commit nothing
			}
			if commits != want || publishes < 1 || publishes > pages {
				t.Fatalf("%d fresh pages with %d links each: the analyzers made %d commits and %d publishes; want %d commits and 1 to %d publishes",
					pages, links, commits, publishes, want, pages)
			}
			if st := e.Status(); st.PagesFetched != pages || st.Pages != pages*(1+links) || st.FetchesFailed != 0 {
				t.Fatalf("after the burst: %d fetched, %d pages known, %d failed; want %d, %d, 0",
					st.PagesFetched, st.Pages, st.FetchesFailed, pages, pages*(1+links))
			}
			if commits, publishes := visitAll(1); commits != 0 || publishes != 0 {
				t.Fatalf("%d revisits cost the analyzers %d commits and %d publishes, want none", pages, commits, publishes)
			}
			t.Logf("%d fresh pages: %d analyzer groups", pages, publishes)
		})
	}
}

// TestEnsurePagesConcurrentOverlappingLists: 8 goroutines resolve link
// lists that overlap each other, repeat a URL within one list and include
// the linking page itself. Every URL ends up with one row and one id, each
// call's ids line up with its URLs, and a reopened engine hands back the
// same ids.
func TestEnsurePagesConcurrentOverlappingLists(t *testing.T) {
	src := linkedSource{base: "http://burst.example"}
	cfg := Config{Dir: t.TempDir(), Source: src}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const workers, rounds, span = 8, 60, 7
	var mu sync.Mutex
	idOf := map[string]int64{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Neighbouring workers' windows overlap, so most URLs are
				// being created by somebody else at the same moment.
				start := r*3 + w
				self := src.url(start)
				urls := []string{self}
				for i := 0; i < span; i++ {
					urls = append(urls, src.url(start+i))
				}
				urls = append(urls, src.url(start+2), self) // repeats, and the page itself again
				ids, err := e.ensurePages(urls, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if len(ids) != len(urls) {
					t.Errorf("%d ids for %d urls", len(ids), len(urls))
					return
				}
				mu.Lock()
				for i, url := range urls {
					if ids[i] == 0 {
						t.Errorf("url %s resolved to id 0", url)
					}
					if prev, seen := idOf[url]; seen && prev != ids[i] {
						t.Errorf("url %s resolved to %d and to %d", url, prev, ids[i])
					}
					idOf[url] = ids[i]
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	distinct := map[int64]bool{}
	for _, id := range idOf {
		distinct[id] = true
	}
	if len(distinct) != len(idOf) {
		t.Fatalf("%d distinct ids for %d urls", len(distinct), len(idOf))
	}
	if rows := tableLen(t, e, pagesPrefix); rows != len(idOf) {
		t.Fatalf("pages table holds %d rows, want %d", rows, len(idOf))
	}
	// Ids are handed out in first-sight order with no gap.
	for id := int64(1); id <= int64(len(idOf)); id++ {
		if !distinct[id] {
			t.Fatalf("ids 1..%d have a gap at %d", len(idOf), id)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	urls := make([]string, 0, len(idOf))
	for url := range idOf {
		urls = append(urls, url)
	}
	slices.Sort(urls)
	ids, err := e.ensurePages(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, url := range urls {
		if ids[i] != idOf[url] {
			t.Fatalf("after reopen %s is page %d, was %d", url, ids[i], idOf[url])
		}
	}
	if id := pageID(t, e, "http://burst.example/brand-new"); id != int64(len(idOf))+1 {
		t.Fatalf("first new page after reopen got id %d, want %d", id, len(idOf)+1)
	}
}

// gatedSource holds every Lookup until the gate opens.
type gatedSource struct {
	page Content
	gate chan struct{}
}

func (s gatedSource) Lookup(url string) (Content, bool) {
	<-s.gate
	return s.page, url == s.page.URL
}

// TestFailedRowWriteLeavesPageUnfetched: when a fetched page's group
// cannot be written — here the kvstore is closed while the fetch is in
// flight, so the out-link batch fails, or with no links, when the group
// commits no row, the publish's read of the page's lnk/ record does — the
// page must stay unfetched in every sense: claim released with the title
// it set, nothing indexed, nothing published, the failure counted.
func TestFailedRowWriteLeavesPageUnfetched(t *testing.T) {
	for _, links := range [][]string{{"http://zoo.example/a", "http://zoo.example/b"}, nil} {
		t.Run(fmt.Sprint("links=", len(links)), func(t *testing.T) {
			src := gatedSource{
				page: Content{URL: "http://zoo.example/tapir", Title: "Tapir", Text: "tapir rainforest browsing", Links: links},
				gate: make(chan struct{}),
			}
			e, err := Open(Config{Dir: t.TempDir(), Source: src, GCInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			e.RegisterUser(1, "alice")
			if err := e.RecordVisit(1, src.page.URL, "", tBase, events.Community); err != nil {
				t.Fatal(err)
			}
			id := pageID(t, e, src.page.URL)
			before := e.Status()

			e.kv.Close() // the event is queued and its analyzer is parked in Lookup
			close(src.gate)
			e.DrainBackground()

			e.mu.RLock()
			rec := e.meta[id]
			e.mu.RUnlock()
			if rec.fetched || rec.title != "" {
				t.Fatalf("claim survived the failed row write: %+v", rec)
			}
			st := e.Status()
			if st.PagesIndexed != before.PagesIndexed || e.idx.Docs() != 0 {
				t.Fatalf("the page was indexed: %d docs", e.idx.Docs())
			}
			if st.Version.Watermark != before.Version.Watermark || st.Version.Entries != before.Version.Entries {
				t.Fatalf("the page was published: watermark %d → %d, entries %d → %d",
					before.Version.Watermark, st.Version.Watermark, before.Version.Entries, st.Version.Entries)
			}
			if st.PagesFetched != 0 || st.FetchesFailed != 1 {
				t.Fatalf("PagesFetched = %d, FetchesFailed = %d; want 0 and 1", st.PagesFetched, st.FetchesFailed)
			}
			if st.Pages != before.Pages {
				t.Fatalf("%d pages known, %d before: a link row was half-created", st.Pages, before.Pages)
			}
		})
	}
}

// burstWorld is a corpus the size of the benchmark's preload — 5 760 pages
// against its 5 687 fetches — and an engine configured as the facade
// configures the benchmark's.
func burstWorld(tb testing.TB, pagesPerLeaf int) (*webcorpus.Corpus, *Engine) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 3, PagesPerLeaf: pagesPerLeaf})
	e, err := Open(Config{Dir: tb.TempDir(), Source: corpusSource{c}})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { e.Close() })
	e.RegisterUser(1, "alice")
	return c, e
}

// TestIngestBurstLeavesShortChains: after a benchmark-sized burst of fresh
// pages the deepest hot chain — what the first mining pass behind the
// burst walks under every decode — is a few dozen layers, where one layer
// per publish left 403–460.
func TestIngestBurstLeavesShortChains(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 5 760 pages")
	}
	c, e := burstWorld(t, 120)
	for i := range c.Pages {
		if err := e.RecordVisit(1, c.Pages[i].URL, "", tBase.Add(time.Duration(i)*time.Second), events.Community); err != nil {
			t.Fatal(err)
		}
		if i%1024 == 1023 {
			e.DrainBackground() // stay inside the event queue
		}
	}
	e.DrainBackground()
	st := e.Status()
	if int(st.PagesFetched) != len(c.Pages) || st.EventsDropped != 0 {
		t.Fatalf("fetched %d of %d pages, dropped %d events", st.PagesFetched, len(c.Pages), st.EventsDropped)
	}
	if st.Version.Layers > 48 {
		t.Fatalf("deepest hot chain is %d layers after %d publishes, want <= 48", st.Version.Layers, st.Version.Watermark)
	}
	t.Logf("%d publishes, deepest chain %d layers, %d entries resident, %d dropped by tiering or fold",
		st.Version.Watermark, st.Version.Layers, st.Version.Entries, st.Version.GCReclaimed)
}

// BenchmarkIngestBurst is the write side of a burst end to end: 2 000
// fresh linked pages through RecordVisit and the analyzers, reporting wall
// time and kvstore commits per page and the chain depth left behind.
func BenchmarkIngestBurst(b *testing.B) {
	const pages = 2000
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		c, e := burstWorld(b, 42) // 2 016 pages
		before := e.kv.Stats().Commits
		b.StartTimer()
		start := time.Now()
		for i := 0; i < pages; i++ {
			if err := e.RecordVisit(1, c.Pages[i].URL, "", tBase, events.Community); err != nil {
				b.Fatal(err)
			}
		}
		e.DrainBackground()
		elapsed := time.Since(start)
		b.StopTimer()
		st := e.Status()
		if st.PagesFetched != pages {
			b.Fatalf("fetched %d of %d pages", st.PagesFetched, pages)
		}
		b.ReportMetric(float64(elapsed.Microseconds())/pages, "µs/page")
		b.ReportMetric(float64(e.kv.Stats().Commits-before)/pages, "commits/page")
		b.ReportMetric(float64(st.Version.Layers), "layers")
		e.Close()
	}
}

// BenchmarkPreload is the benchmark's preload on benchWorld's trace: 8 000
// community visits with their referrers, then the bookmarks made by the
// last of them, draining every 2 048 events as the preload does to stay
// inside the event queue. It runs at one and at two analyzers and reports,
// per preload, the kvstore commits, the version publishes (the watermark)
// and the process CPU time, user and system.
func BenchmarkPreload(b *testing.B) {
	c := webcorpus.Generate(benchWeb)
	tr := sim.Simulate(c, benchSurf)
	tr.Visits = tr.Visits[:min(len(tr.Visits), 8000)]
	last := tr.Visits[len(tr.Visits)-1].Time
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprint("workers=", workers), func(b *testing.B) {
			var commits, publishes uint64
			var cpu time.Duration
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				e, err := Open(Config{Dir: b.TempDir(), Source: corpusSource{c}, workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				for _, u := range tr.Users {
					if err := e.RegisterUser(u.ID, u.Name); err != nil {
						b.Fatal(err)
					}
				}
				before, cpuBefore := e.kv.Stats().Commits, processCPU()
				b.StartTimer()
				queued := 0
				step := func() {
					if queued++; queued == 2048 {
						e.DrainBackground()
						queued = 0
					}
				}
				for _, v := range tr.Visits {
					ref := ""
					if v.Referrer != 0 {
						ref = c.Page(v.Referrer).URL
					}
					if err := e.RecordVisit(v.User, c.Page(v.Page).URL, ref, v.Time, events.Community); err != nil {
						b.Fatal(err)
					}
					step()
				}
				for _, bm := range tr.Bookmarks {
					if bm.Time.After(last) {
						break
					}
					if err := e.AddBookmark(bm.User, c.Page(bm.Page).URL, bm.Folder, bm.Time); err != nil {
						b.Fatal(err)
					}
					step()
				}
				e.DrainBackground()
				b.StopTimer()
				cpu += processCPU() - cpuBefore
				commits += e.kv.Stats().Commits - before
				publishes += e.vs.Watermark()
				if st := e.Status(); st.EventsDropped != 0 || st.FetchesFailed != 0 {
					b.Fatalf("%d events dropped, %d fetches failed", st.EventsDropped, st.FetchesFailed)
				}
				e.Close()
			}
			b.ReportMetric(float64(commits)/float64(b.N), "commits/op")
			b.ReportMetric(float64(publishes)/float64(b.N), "publishes/op")
			b.ReportMetric(cpu.Seconds()/float64(b.N), "cpu-s/op")
		})
	}
}

// processCPU is the process's user and system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
