package core

import (
	"fmt"
	"io"
	"time"

	"memex/internal/classify"
	"memex/internal/events"
	"memex/internal/folders"
	"memex/internal/rdbms"
)

// RegisterUser creates (or refreshes) a user record.
func (e *Engine) RegisterUser(id int64, name string) error {
	if err := e.usersTbl.Upsert(rdbms.Row{
		"id":   rdbms.Int(id),
		"name": rdbms.String(name),
	}); err != nil {
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
	}
	if _, err := e.visits.InsertSeq(rdbms.Row{
		"user":    rdbms.Int(user),
		"page":    rdbms.Int(pageID),
		"ref":     rdbms.Int(refID),
		"time":    rdbms.Time(at),
		"privacy": rdbms.Int(int64(privacy)),
	}); err != nil {
		return err
	}
	e.mu.Lock()
	e.markVisitedLocked(user, pageID, privacy)
	e.mu.Unlock()
	if refID != 0 {
		// The referrer→page transition is link-graph evidence like any
		// fetched out-link: publish it as adjacency-record deltas (one
		// epoch, no-op when the edge is already known) so trail mining
		// still sees it after a restart.
		e.links.publish(refID, []int64{pageID}, nil)
	}
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
	if _, err := e.bookmarks.InsertSeq(rdbms.Row{
		"user":   rdbms.Int(user),
		"page":   rdbms.Int(pageID),
		"folder": rdbms.String(folder),
		"time":   rdbms.Time(at),
	}); err != nil {
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
	if _, insErr := e.bookmarks.InsertSeq(rdbms.Row{
		"user":   rdbms.Int(user),
		"page":   rdbms.Int(pageID),
		"folder": rdbms.String(folder),
		"time":   rdbms.Time(e.cfg.Now()),
	}); insErr != nil {
		return insErr
	}
	return err
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
// order from one id range and writes their rows as one commit. A fetched
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
	var rows []rdbms.Row
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
		rows = append(rows, rdbms.Row{"url": rdbms.String(url), "title": rdbms.String("")})
	}
	if len(fresh) > 0 {
		first, err := e.pages.InsertSeq(rows...)
		if err != nil {
			return nil, err
		}
		for i, url := range fresh {
			e.meta[first+int64(i)] = pageRec{url: url}
			e.idByURL[url] = first + int64(i)
		}
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
// performed the fetch, nil otherwise (already fetched, or content
// unavailable). The "already fetched" fast path is one brief read-lock
// on the page's claim flag — no store read, no tokenizing.
func (e *Engine) fetchAndIndex(pageID int64, url string) map[string]int {
	if e.derivedPublished(pageID) {
		return nil
	}
	return e.fetchAndIndexSlow(pageID, url)
}

// fetchAndIndexSlow is the publish half of the fetch path. Callers have
// already decided the page looks unfetched; the claim set arbitrates
// races authoritatively. It returns the page's term counts, nil when
// content was unavailable or a row could not be written. By the time it
// returns, the page's lnk/ adjacency record — and the authority graph —
// hold its full out-link union (the claim winner publishes synchronously).
//
// The order is claim → row writes → index → publish. The rows come first
// because they are the step that can fail: a page whose tf/ record exists
// counts as fetched in every later life and is never fetched again, so
// publishing ahead of a title write that then failed would leave the row
// without its title for good. If a row write fails the claim is released
// and nothing is indexed or published: the page stays unfetched, and its
// next visit — or requeueUnfetched at the next Open — tries again.
func (e *Engine) fetchAndIndexSlow(pageID int64, url string) map[string]int {
	content, ok := e.cfg.Source.Lookup(url)
	if !ok {
		return nil
	}
	tf := e.stems.TermCounts(content.Title + " " + content.Text)

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
		// read the authority's adjacency the moment we return.
		links, err := e.ensurePages(content.Links)
		if err != nil {
			return nil
		}
		e.links.publish(pageID, links, nil)
		return tf
	}
	oldTitle := rec.title
	rec.fetched, rec.title = true, content.Title
	e.meta[pageID] = rec
	e.mu.Unlock()

	// Resolve out-link URLs to stable page ids (seen-but-unfetched targets
	// get their pages-table row here — the durable half of the crawl
	// frontier), then record the title.
	links, err := e.ensurePages(content.Links)
	if err == nil {
		_, err = e.pages.Update(rdbms.Int(pageID), func(r rdbms.Row) rdbms.Row {
			r["title"] = rdbms.String(content.Title)
			return r
		})
	}
	if err != nil {
		e.mu.Lock()
		rec = e.meta[pageID]
		rec.fetched, rec.title = false, oldTitle
		e.meta[pageID] = rec
		e.mu.Unlock()
		e.stats.FetchesFailed.Add(1)
		return nil
	}
	e.stats.PagesFetched.Add(1)

	// The index must count the doc before its vector becomes visible to
	// snapshot readers, or a TFIDF pass could weight the page against DF
	// stats that don't include it yet.
	e.idx.AddCounts(pageID, tf)

	// Publish the page's derived state as one batch: the tf/ term record,
	// the dict/ record of every term no page has named before, the lnk/
	// adjacency record, and the rin/ record of every newly linked target.
	// Consumers see all of it or none of it, from memory while hot, from
	// the kvstore cold tier once GC folds it, and again after a restart
	// recovers the fold.
	e.links.publish(pageID, links, tf)
	return tf
}

// classifyForUser places the page into the user's folder space as a guess
// ('?' in the Figure 1 UI) when the user has a trained classifier. tf is
// the page's term counts when the caller just fetched it; for pages
// fetched earlier the counts come from a pinned snapshot of the version
// store.
func (e *Engine) classifyForUser(user, pageID int64, tf map[string]int) {
	e.mu.RLock()
	model := e.models[user]
	rec := e.meta[pageID]
	e.mu.RUnlock()
	if model == nil {
		return
	}
	if tf == nil {
		e.withView(func(view *DerivedView) { tf = view.TermCounts(pageID) })
	}
	if tf == nil {
		return
	}
	folder, conf := model.Classify(tf)
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
// epoch no matter how much the fetch path publishes meanwhile.
func (e *Engine) RetrainClassifiers() {
	e.mu.RLock()
	users := make([]int64, 0, len(e.trees))
	for u := range e.trees {
		users = append(users, u)
	}
	e.mu.RUnlock()

	type example struct {
		path string
		page int64
	}
	e.withView(func(view *DerivedView) {
		for _, u := range users {
			// Collect (folder, page) pairs under the metadata lock, then
			// resolve term counts from the snapshot with no lock held.
			var examples []example
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
					examples = append(examples, example{path, entry.Page})
				}
			})
			e.mu.RUnlock()

			trainer := classify.NewTrainer(e.dict)
			perClass := map[string]bool{}
			for _, ex := range examples {
				if tf := view.TermCounts(ex.page); tf != nil {
					trainer.AddCounts(ex.path, tf)
					perClass[ex.path] = true
				}
			}
			if len(perClass) < 2 {
				continue
			}
			model, err := trainer.Train(classify.Options{MaxFeatures: 4000})
			if err != nil {
				continue
			}
			e.mu.Lock()
			e.models[u] = model
			e.mu.Unlock()
		}
	})
}
