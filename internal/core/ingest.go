package core

import (
	"fmt"
	"io"
	"runtime"
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
// analysis (fetch, index, classify) is queued for the background demons.
// Privacy Off means the event is acknowledged and discarded.
func (e *Engine) RecordVisit(user int64, url, referrer string, at time.Time, privacy events.Privacy) error {
	if privacy == events.Off {
		return nil // user chose not to archive
	}
	if at.IsZero() {
		at = e.cfg.Now()
	}
	pageID, err := e.ensurePage(url)
	if err != nil {
		return err
	}
	var refID int64
	if referrer != "" {
		if refID, err = e.ensurePage(referrer); err != nil {
			return err
		}
		// A community visit's referrer→page transition is link-graph
		// evidence like any fetched out-link: publish it as adjacency
		// records (one epoch, nothing when the edge is already known) so
		// trail mining still sees it after a restart. It goes first so that
		// an error leaves no visit row behind for a retry to duplicate. A
		// private visit's edge is as private as the visit (DESIGN.md §1):
		// it stays in the visit row, where only its owner's trails read it.
		if privacy == events.Community {
			if err := e.links.publish(refID, []int64{pageID}, nil); err != nil {
				return err
			}
		}
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
	e.pushed.Add(1)
	e.queue.Push(events.Event{Kind: events.VisitEvent, User: user, URL: url, Privacy: privacy})
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
	e.mu.Lock()
	e.treeLocked(user).Add(folder, folders.Entry{
		Page: pageID, URL: url, Title: e.meta[pageID].title, Added: at,
	})
	e.mu.Unlock()
	e.stats.BookmarksLogged.Add(1)
	// Ensure the page is fetched/indexed so training has text.
	e.pushed.Add(1)
	e.queue.Push(events.Event{Kind: events.BookmarkEvent, User: user, URL: url})
	return nil
}

// CorrectPlacement moves a page to the right folder (the cut/paste
// reinforcement of Figure 1) and counts as a fresh training signal.
func (e *Engine) CorrectPlacement(user int64, url, folder string) error {
	e.mu.Lock()
	pageID, ok := e.idByURL[url]
	if !ok {
		e.mu.Unlock()
		return fmt.Errorf("core: unknown page %q", url)
	}
	tree := e.treeLocked(user)
	err := tree.MovePage(pageID, folder)
	if err != nil {
		// Not filed yet: treat as a fresh placement.
		tree.Add(folder, folders.Entry{Page: pageID, URL: url, Title: e.meta[pageID].title, Added: e.cfg.Now()})
		err = nil
	}
	e.mu.Unlock()
	if insErr := e.putBookmark(user, pageID, folder, e.cfg.Now()); insErr != nil {
		return insErr
	}
	return err
}

// putBookmark writes a bookmark row under the next bookmark id.
func (e *Engine) putBookmark(user, page int64, folder string, at time.Time) error {
	return e.kv.Put(bookmarkRow{id: e.lastBookmark.Add(1), user: user, page: page, at: at.UnixNano(), folder: folder}.record())
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
	e.mu.RLock()
	id, ok := e.idByURL[url]
	e.mu.RUnlock()
	if ok {
		return id, nil
	}
	ids, err := e.ensurePages([]string{url})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// ensurePages returns the stable page id of every url, in order, creating
// the rows of all the never-seen ones together: one read-locked pass over
// idByURL, then — only if something was missing — one write-locked pass
// that re-checks (another goroutine may have created a URL in between),
// drops repeats within the list, numbers the new pages in first-sight
// order from nextPage on and writes their rows as one commit. A fetched
// page's out-links are the bulk caller: six never-seen links are one turn
// under e.mu and one commit, not six of each.
//
// A map miss means no row: reload fills idByURL from every row, and the
// rows and their map entries are written in the one critical section
// below (DESIGN.md §1). On an error nothing was written and no id is
// returned.
func (e *Engine) ensurePages(urls []string) ([]int64, error) {
	ids := make([]int64, len(urls))
	missing := 0
	e.mu.RLock()
	for i, url := range urls {
		if ids[i] = e.idByURL[url]; ids[i] == 0 { // ids start at 1
			missing++
		}
	}
	e.mu.RUnlock()
	if missing == 0 {
		return ids, nil
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	var fresh []string
	var rows []kvstore.KV
	queued := make(map[string]bool, missing)
	for i, url := range urls {
		if ids[i] != 0 || queued[url] {
			continue
		}
		if _, known := e.idByURL[url]; known {
			continue
		}
		queued[url] = true
		fresh = append(fresh, url)
		k, v := pageRow{id: e.nextPage + int64(len(rows)), url: url}.record()
		rows = append(rows, kvstore.KV{Key: k, Value: v})
	}
	if len(fresh) > 0 {
		if err := e.kv.PutBatch(rows); err != nil {
			return nil, err
		}
		for i, url := range fresh {
			e.meta[e.nextPage+int64(i)] = pageRec{url: url}
			e.idByURL[url] = e.nextPage + int64(i)
		}
		e.nextPage += int64(len(fresh))
	}
	for i, url := range urls {
		if ids[i] == 0 {
			ids[i] = e.idByURL[url]
		}
	}
	return ids, nil
}

// analyzerLoop is the background demon body: it drains the event queue and
// performs fetch → index → graph → classify for each event.
func (e *Engine) analyzerLoop(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		ev, ok := e.queue.Pop()
		if !ok {
			return
		}
		e.process(ev)
	}
}

// process performs the per-event background analysis. The event counts as
// processed even when its analysis panics, so a failure in one event can
// neither wedge DrainBackground nor skew the demon supervisor's restart
// accounting.
func (e *Engine) process(ev events.Event) {
	defer e.processed.Add(1)
	pageID, err := e.ensurePage(ev.URL)
	if err != nil {
		return
	}
	tf := e.fetchAndIndex(pageID, ev.URL)
	if ev.Kind == events.VisitEvent {
		e.classifyForUser(ev.User, pageID, tf)
	}
}

// fetchAndIndex resolves content once per page, indexes it, and publishes
// term stats plus out-link adjacency through the version store as one
// batch. It returns the freshly computed term counts when this call
// performed the fetch, nil IDs otherwise (already fetched, or content
// unavailable). The "already fetched" fast path is one brief read-lock
// on the page's claim flag — no store read, no tokenizing.
func (e *Engine) fetchAndIndex(pageID int64, url string) text.Vector {
	if e.derivedPublished(pageID) {
		return text.Vector{}
	}
	return e.fetchAndIndexSlow(pageID, url)
}

// fetchAndIndexSlow is the publish half of the fetch path. Callers have
// already decided the page looks unfetched; the claim set arbitrates
// races authoritatively. It returns the page's raw term counts by id —
// resolved here, once, through the stem memo — and nil IDs when content
// was unavailable or a row, or a record the publish rewrites, could not be
// read or written. By the time it returns, the latest
// published lnk/ adjacency record of the page holds its full out-link
// union, on both sides of the claim race (each publishes synchronously).
//
// The order is claim → row writes → index and publish. The rows come first
// because they are the step that can fail: a page whose tf/ record exists
// counts as fetched in every later life and is never fetched again, so
// publishing ahead of a title write that then failed would leave the row
// without its title for good. If a row write, or a read the publish needs,
// fails the claim is released and nothing is indexed or published: the
// page stays unfetched, and its next visit — or requeueUnfetched at the
// next Open — tries again.
func (e *Engine) fetchAndIndexSlow(pageID int64, url string) text.Vector {
	content, ok := e.cfg.Source.Lookup(url)
	if !ok {
		return text.Vector{}
	}
	tf := e.stems.Counts(content.Title + " " + content.Text)

	// Claim the page under the metadata lock before any side effects: two
	// workers can race here on the same URL, so only the claim winner may
	// publish or index it.
	e.mu.Lock()
	rec := e.meta[pageID]
	if rec.fetched {
		e.mu.Unlock()
		// Lost the claim: the winner owns the tf publish, but may still
		// be resolving link URLs ahead of its own adjacency publish.
		// Publish the out-links this call already holds — idempotent and
		// serialized with the winner under the link lock, so whichever
		// side lands last leaves the full union — because our caller may
		// read the page's lnk/ record the moment we return.
		links, err := e.ensurePages(content.Links)
		if err != nil || e.links.publish(pageID, links, nil) != nil {
			return text.Vector{}
		}
		return tf
	}
	oldTitle := rec.title
	rec.fetched, rec.title = true, content.Title
	e.meta[pageID] = rec
	e.mu.Unlock()

	// Resolve out-link URLs to stable page ids (seen-but-unfetched targets
	// get their pages-table row here — the durable half of the crawl
	// frontier), then record the title.
	title := oldTitle // the title the row holds
	links, err := e.ensurePages(content.Links)
	if err == nil {
		err = e.kv.Put(pageRow{id: pageID, url: rec.url, title: content.Title}.record())
	}
	if err == nil {
		title = content.Title
		// Index and publish the page's derived state as one batch: the tf/
		// term record, the dict/ record of every term no page has named
		// before, the lnk/ adjacency record, and the rin/ record of every
		// newly linked target. The index counts the doc before the batch
		// makes its vector visible to snapshot readers, or a TFIDF pass
		// could weight the page against DF stats that don't include it yet.
		// Consumers see all of it or none of it, from memory while hot, from
		// the kvstore cold tier once GC folds it, and again after a restart
		// recovers the fold.
		err = e.links.publish(pageID, links, &tf)
	}
	if err != nil {
		e.mu.Lock()
		rec = e.meta[pageID]
		rec.fetched, rec.title = false, title
		e.meta[pageID] = rec
		e.mu.Unlock()
		e.stats.FetchesFailed.Add(1)
		return text.Vector{}
	}
	e.stats.PagesFetched.Add(1)
	return tf
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
