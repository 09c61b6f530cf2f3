package core

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"memex/internal/classify"
	"memex/internal/events"
	"memex/internal/folders"
	"memex/internal/kvstore"
	"memex/internal/text"
)

// RegisterUser creates (or refreshes) a user record. The record is the id
// alone: nothing reads a user's name back, so it is not stored.
func (e *Engine) RegisterUser(id int64, name string) error {
	if err := e.kv.Put(userRecord(id)); err != nil {
		return err
	}
	e.mu.Lock()
	e.treeLocked(id)
	e.mu.Unlock()
	return nil
}

// RecordVisit is the guaranteed-immediate foreground path for a page-view
// event: the visit row is written, visibility updated, and the heavy
// analysis (fetch, index, classify, and a community visit's referrer
// edge) is queued for the background demons. Privacy Off means the event
// is acknowledged and discarded.
func (e *Engine) RecordVisit(user int64, url, referrer string, at time.Time, privacy events.Privacy) error {
	if privacy == events.Off {
		return nil // user chose not to archive
	}
	if at.IsZero() {
		at = e.cfg.Now()
	}
	urls := []string{url}
	if referrer != "" {
		urls = append(urls, referrer)
	}
	ids, err := e.ensurePages(urls, nil)
	if err != nil {
		return err
	}
	pageID, refID := ids[0], int64(0)
	if referrer != "" {
		refID = ids[1]
	}
	// An id taken by a visit or bookmark whose write fails is not handed
	// out again; nothing refers to those ids, so the gap is harmless.
	visit := visitRow{user: user, at: at.UnixNano(), id: e.lastVisit.Add(1), page: pageID, ref: refID, privacy: privacy}
	if err := e.kv.Put(visit.record()); err != nil {
		return err
	}
	e.mu.Lock()
	e.markVisitedLocked(user, pageID, privacy)
	e.mu.Unlock()
	e.stats.VisitsLogged.Add(1)
	e.enqueue(events.Event{Kind: events.VisitEvent, User: user, URL: url, Referrer: referrer, Privacy: privacy})
	return nil
}

// AddBookmark files url into the user's folder (foreground path). The
// placement is a supervised training example for the user's classifier.
func (e *Engine) AddBookmark(user int64, url, folder string, at time.Time) error {
	if at.IsZero() {
		at = e.cfg.Now()
	}
	pageID, err := e.ensurePage(url)
	if err != nil {
		return err
	}
	if err := e.putBookmark(user, pageID, folder, at); err != nil {
		return err
	}
	e.stats.BookmarksLogged.Add(1)
	// Ensure the page is fetched/indexed so training has text.
	e.enqueue(events.Event{Kind: events.BookmarkEvent, User: user, URL: url})
	return nil
}

// CorrectPlacement moves a page to the right folder (the cut/paste
// reinforcement of Figure 1) and counts as a fresh training signal. A
// correction is a bookmark row, filed as AddBookmark files one.
func (e *Engine) CorrectPlacement(user int64, url, folder string) error {
	e.mu.RLock()
	pageID, ok := e.idByURL[url]
	e.mu.RUnlock()
	if !ok {
		return fmt.Errorf("core: unknown page %q", url)
	}
	return e.putBookmark(user, pageID, folder, e.cfg.Now())
}

// putBookmark writes a bookmark row under the next bookmark id and then
// files it into the user's tree, so a refused write leaves the tree as it
// was.
func (e *Engine) putBookmark(user, page int64, folder string, at time.Time) error {
	r := bookmarkRow{id: e.lastBookmark.Add(1), user: user, page: page, at: at.UnixNano(), folder: folder}
	if err := e.kv.Put(r.record()); err != nil {
		return err
	}
	e.mu.Lock()
	e.fileLocked(r)
	e.mu.Unlock()
	return nil
}

// ImportBookmarks ingests a Netscape bookmark file for the user.
func (e *Engine) ImportBookmarks(user int64, r io.Reader) (int, error) {
	tree, err := folders.ImportNetscape(r)
	if err != nil {
		return 0, err
	}
	n := 0
	var walkErr error
	tree.Walk(func(f *folders.Folder) {
		for _, entry := range f.Entries {
			if walkErr != nil {
				return
			}
			path := f.Path()
			if err := e.AddBookmark(user, entry.URL, path, entry.Added); err != nil {
				walkErr = err
				return
			}
			n++
		}
	})
	return n, walkErr
}

// ExportBookmarks writes the user's folder tree in Netscape format.
func (e *Engine) ExportBookmarks(user int64, w io.Writer) error {
	e.mu.RLock()
	tree := e.trees[user]
	e.mu.RUnlock()
	if tree == nil {
		tree = folders.NewTree()
	}
	return folders.ExportNetscape(tree, w)
}

// ensurePage returns the stable page id for url, creating the row if new.
func (e *Engine) ensurePage(url string) (int64, error) {
	ids, err := e.ensurePages([]string{url}, nil)
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// ensurePages returns the stable page id of every url, in order, creating
// the rows of all the never-seen ones together: one read-locked pass over
// idByURL, then — only if something was missing, or rows holds records to
// write — one write-locked pass that re-checks (another goroutine may have
// created a URL in between), drops repeats within the list, numbers the
// new pages in first-sight order from nextPage on and writes their rows,
// with the caller's rows, as one commit. An analyzer group is the bulk
// caller: the never-seen out-links of every page it fetched and those
// pages' title rows are one turn under e.mu and one commit, not one of
// each per page.
//
// A map miss means no row: reload fills idByURL from every row, and the
// rows and their map entries are written in the one critical section
// below (DESIGN.md §1). On an error nothing was written and no id is
// returned.
func (e *Engine) ensurePages(urls []string, rows []kvstore.KV) ([]int64, error) {
	ids := make([]int64, len(urls))
	missing := 0
	e.mu.RLock()
	for i, url := range urls {
		if ids[i] = e.idByURL[url]; ids[i] == 0 { // ids start at 1
			missing++
		}
	}
	e.mu.RUnlock()
	if missing == 0 && len(rows) == 0 {
		return ids, nil
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	var fresh []string
	rows = slices.Clip(rows) // the new page rows go after the caller's, never into its array
	queued := make(map[string]bool, missing)
	for i, url := range urls {
		if ids[i] != 0 || queued[url] {
			continue
		}
		if _, known := e.idByURL[url]; known {
			continue
		}
		queued[url] = true
		k, v := pageRow{id: e.nextPage + int64(len(fresh)), url: url}.record()
		fresh = append(fresh, url)
		rows = append(rows, kvstore.KV{Key: k, Value: v})
	}
	if len(rows) > 0 {
		if err := e.kv.PutBatch(rows); err != nil {
			return nil, err
		}
	}
	for i, url := range fresh {
		e.meta[e.nextPage+int64(i)] = pageRec{url: url}
		e.idByURL[url] = e.nextPage + int64(i)
	}
	e.nextPage += int64(len(fresh))
	for i, url := range urls {
		if ids[i] == 0 {
			ids[i] = e.idByURL[url]
		}
	}
	return ids, nil
}

// groupMax bounds the events an analyzer takes from the queue at once. A
// group pays one row commit and one version publish however many pages it
// fetches, and rewrites a much-linked page's rin/ record once, so a larger
// group amortises more. It also holds its pages' text and claims until
// that publish, and a failed publish gives all its claims back. At 16, 64
// and 256 the benchmark's preload, burst latency and set-up all measured
// best at 256 (CHANGES.md has the sweep).
const groupMax = 256

// analyzerLoop is the background demon body: it takes the queued events
// in groups and ingests each group in one pass.
func (e *Engine) analyzerLoop(stop <-chan struct{}) {
	buf := make([]events.Event, 0, groupMax)
	for {
		select {
		case <-stop:
			return
		default:
		}
		group, ok := e.queue.PopBatch(buf[:0], groupMax)
		if !ok {
			return
		}
		e.process(group)
	}
}

// process performs the background analysis of one group of events: every
// page fetched, indexed and published, with every community visit's
// referrer edge, through one ingest, then each visit classified for its
// user. The events count as processed even when their analysis panics, so
// a failure can neither wedge DrainBackground nor skew the demon
// supervisor's restart accounting. A panicking Lookup costs only its own
// event: the rest of the group is ingested and classified first, and the
// panic is raised again after, for the supervisor.
func (e *Engine) process(group []events.Event) {
	defer e.finished(len(group))
	urls := make([]string, 0, 2*len(group))
	for _, ev := range group {
		urls = append(urls, ev.URL)
		if hasEdge(ev) {
			urls = append(urls, ev.Referrer)
		}
	}
	ids, err := e.ensurePages(urls, nil)
	if err != nil {
		return
	}
	pages := make([]int64, len(group))
	var edges []linkUpdate
	next := 0
	for i, ev := range group {
		pages[i], next = ids[next], next+1
		if hasEdge(ev) {
			edges = append(edges, linkUpdate{from: ids[next], targets: pages[i : i+1]})
			next++
		}
	}
	tfs, panicked := e.ingest(pages, edges)
	for i, ev := range group {
		if ev.Kind == events.VisitEvent {
			e.classifyForUser(ev.User, pages[i], tfs[pages[i]])
		}
	}
	if panicked != nil {
		panic(panicked)
	}
}

// hasEdge reports whether ev carries a referrer edge for the link graph: a
// community visit's referrer→page transition is link evidence like any
// fetched out-link. A private visit's edge is as private as the visit
// (DESIGN.md §1): it stays in the visit row, where only its owner's trails
// read it.
func hasEdge(ev events.Event) bool {
	return ev.Kind == events.VisitEvent && ev.Privacy == events.Community && ev.Referrer != ""
}

// ingest fetches a group of pages and publishes them, with edges, in one
// pass: pages already fetched, and repeats, are skipped under one read
// lock; the rest are resolved and tokenized with no lock held; the group
// claims them in one e.mu section; their never-seen out-link rows and
// their title rows are one commit; and their tf/, lnk/ and rin/ records,
// the dict/ records they need and the edges are one version publish. It
// returns the raw term counts by id of every page this call resolved and
// published (a page another group claimed first publishes its out-links
// here all the same), and the first panic value of a Lookup, for the
// caller to raise again: such a page is skipped, and the rest of the
// group goes on.
//
// The rows come before the publish because they are the step that can
// fail: a page whose tf/ record exists counts as fetched in every later
// life and is never fetched again, so publishing ahead of a title write
// that then failed would leave the row without its title for good. If the
// commit, or a read the publish needs, fails, every claim of the group is
// released and nothing is indexed or published: the pages stay unfetched,
// FetchesFailed counts them, and their next visit — or requeueUnfetched
// at the next Open — tries again. By the time ingest returns, the latest
// published lnk/ record of each page it resolved holds the page's full
// out-link union, on both sides of a claim race.
func (e *Engine) ingest(pages []int64, edges []linkUpdate) (tfs map[int64]text.Vector, panicked any) {
	type fetch struct {
		page     int64
		url      string
		content  Content
		tf       text.Vector
		claimed  bool
		oldTitle string // the title the row held before the claim
	}
	var todo []fetch
	seen := make(map[int64]bool, len(pages))
	e.mu.RLock()
	for _, page := range pages {
		if rec := e.meta[page]; !rec.fetched && rec.url != "" && !seen[page] {
			seen[page] = true
			todo = append(todo, fetch{page: page, url: rec.url})
		}
	}
	e.mu.RUnlock()

	got := todo[:0]
	for _, f := range todo {
		content, ok, p := e.lookup(f.url)
		if panicked == nil {
			panicked = p
		}
		if ok {
			f.content, f.tf = content, e.stems.Counts(content.Title+" "+content.Text)
			got = append(got, f)
		}
	}
	if len(got) == 0 && len(edges) == 0 {
		return nil, panicked
	}

	// Claim the pages under the metadata lock before any side effects: two
	// workers can race on one URL, so only the claim winner may index it or
	// publish its tf/ record. A loser publishes the out-links it holds
	// all the same — idempotent and serialized with the winner under the
	// link lock, so whichever side lands last leaves the full union —
	// because its caller may read the page's lnk/ record the moment it
	// returns.
	claimed := 0
	e.mu.Lock()
	for i := range got {
		rec := e.meta[got[i].page]
		if rec.fetched {
			continue
		}
		got[i].claimed, got[i].oldTitle = true, rec.title
		rec.fetched, rec.title = true, got[i].content.Title
		e.meta[got[i].page] = rec
		claimed++
	}
	e.mu.Unlock()

	// Resolve out-link URLs to stable page ids (seen-but-unfetched targets
	// get their pages-table row here — the durable half of the crawl
	// frontier) in the commit that records the claimed pages' titles.
	var links []string
	titles := make([]kvstore.KV, 0, claimed)
	for _, f := range got {
		links = append(links, f.content.Links...)
		if f.claimed {
			k, v := pageRow{id: f.page, url: f.url, title: f.content.Title}.record()
			titles = append(titles, kvstore.KV{Key: k, Value: v})
		}
	}
	ids, err := e.ensurePages(links, titles)
	committed := err == nil
	if err == nil {
		// Index and publish the group's derived state as one batch. The
		// index counts each claimed page before the batch makes its vector
		// visible to snapshot readers, or a TFIDF pass could weight the page
		// against DF stats that don't include it yet. Consumers see all of
		// it or none of it, from memory while hot, from the kvstore cold
		// tier once GC folds it, and again after a restart recovers the fold.
		updates := append(make([]linkUpdate, 0, len(edges)+len(got)), edges...)
		for i := range got {
			f := &got[i]
			u := linkUpdate{from: f.page, targets: ids[:len(f.content.Links)]}
			ids = ids[len(f.content.Links):]
			if f.claimed {
				u.tf = &f.tf
			}
			updates = append(updates, u)
		}
		err = e.links.publish(updates)
	}
	if err != nil {
		e.mu.Lock()
		for _, f := range got {
			if f.claimed {
				rec := e.meta[f.page]
				rec.fetched = false
				if !committed {
					rec.title = f.oldTitle
				}
				e.meta[f.page] = rec
			}
		}
		e.mu.Unlock()
		e.stats.FetchesFailed.Add(int64(claimed))
		return nil, panicked
	}
	e.stats.PagesFetched.Add(int64(claimed))
	tfs = make(map[int64]text.Vector, len(got))
	for _, f := range got {
		tfs[f.page] = f.tf
	}
	return tfs, panicked
}

// lookup resolves url through the source, returning a panic of Lookup as
// a value instead of raising it, so that it costs only its own page.
func (e *Engine) lookup(url string) (content Content, ok bool, panicked any) {
	defer func() {
		if p := recover(); p != nil {
			panicked = p
		}
	}()
	content, ok = e.cfg.Source.Lookup(url)
	return content, ok, nil
}

// classifyForUser places the page into the user's folder space as a guess
// ('?' in the Figure 1 UI) when the user has a trained classifier. tf is
// the page's term counts when the caller just fetched it; for pages
// fetched earlier (tf with nil IDs) the counts come from a pinned snapshot
// of the version store.
func (e *Engine) classifyForUser(user, pageID int64, tf text.Vector) {
	e.mu.RLock()
	model := e.models[user]
	rec := e.meta[pageID]
	e.mu.RUnlock()
	if model == nil {
		return
	}
	if tf.IDs == nil {
		e.withView(func(view *DerivedView) { tf = view.TermCounts(pageID) })
	}
	if tf.IDs == nil {
		return
	}
	folder, conf := model.ClassifyVector(tf)
	if conf < 0.4 {
		return // too uncertain to bother the user with a guess
	}
	e.mu.Lock()
	e.treeLocked(user).Add(folder, folders.Entry{
		Page: pageID, URL: rec.url, Title: rec.title,
		Added: e.cfg.Now(), Guessed: true,
	})
	e.mu.Unlock()
}

// RetrainClassifiers rebuilds each user's naive Bayes model from their
// current (non-guessed) folder placements. Users need at least two folders
// with content to get a model. One pinned snapshot supplies every training
// example's term counts, so all users train against the same consistent
// epoch no matter how much the fetch path publishes meanwhile. A
// DerivedView is single-goroutine, so this goroutine resolves every user's
// examples in it; the users then train on runtime.GOMAXPROCS(0)
// goroutines, and each model is stored under e.mu as it is done.
func (e *Engine) RetrainClassifiers() {
	e.retrain(runtime.GOMAXPROCS(0))
}

// retrain is RetrainClassifiers on the given number of training
// goroutines. A model is a function of its user's examples alone, so the
// models are the same for any number. A panic in a training goroutine is
// raised again here once every goroutine has stopped, for the demon
// supervisor to recover; the users other goroutines trained keep their new
// models.
func (e *Engine) retrain(workers int) {
	e.mu.RLock()
	users := make([]int64, 0, len(e.trees))
	for u := range e.trees {
		users = append(users, u)
	}
	e.mu.RUnlock()

	// examples is one user's training set: each example's folder path and
	// term counts.
	type examples struct {
		user  int64
		paths []string
		tfs   []text.Vector
	}
	var jobs []examples
	e.withView(func(view *DerivedView) {
		for _, u := range users {
			// Collect (folder, page) pairs under the metadata lock, then
			// resolve term counts from the snapshot with no lock held.
			var paths []string
			var pages []int64
			e.mu.RLock()
			tree := e.trees[u]
			if tree == nil {
				e.mu.RUnlock()
				continue
			}
			tree.Walk(func(f *folders.Folder) {
				if f.Parent == nil {
					return
				}
				path := f.Path()
				for _, entry := range f.Entries {
					if entry.Guessed {
						continue
					}
					paths = append(paths, path)
					pages = append(pages, entry.Page)
				}
			})
			e.mu.RUnlock()

			ex := examples{user: u}
			perClass := map[string]bool{}
			for i, page := range pages {
				if tf := view.TermCounts(page); tf.IDs != nil {
					ex.paths = append(ex.paths, paths[i])
					ex.tfs = append(ex.tfs, tf)
					perClass[paths[i]] = true
				}
			}
			if len(perClass) >= 2 {
				jobs = append(jobs, ex)
			}
		}
	})

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	for w := 0; w < min(workers, len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = p
					}
					panicMu.Unlock()
				}
			}()
			for i := next.Add(1) - 1; i < int64(len(jobs)); i = next.Add(1) - 1 {
				ex := jobs[i]
				if e.trainHook != nil {
					e.trainHook(ex.user)
				}
				trainer := classify.NewTrainer(e.dict)
				for j, tf := range ex.tfs {
					trainer.AddVector(ex.paths[j], tf)
				}
				model, err := trainer.Train(classify.Options{MaxFeatures: 4000})
				if err != nil {
					continue
				}
				e.mu.Lock()
				e.models[ex.user] = model
				e.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
