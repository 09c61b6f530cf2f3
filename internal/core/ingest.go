package core

import (
	"bytes"
	"encoding/binary"
	"errors"
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

// ErrInvalid marks a write error that is the caller's to fix: a correction
// of an unknown page, a bookmark file that does not parse, a URL-less entry.
var ErrInvalid = errors.New("invalid input")

// RegisterUser creates (or refreshes) a user record. The record is the id
// alone: nothing reads a user's name back, so it is not stored.
func (e *Engine) RegisterUser(id int64, name string) error {
	_, err := e.ensurePages(nil, func([]int64) ([]kvstore.KV, func()) {
		k, v := userRecord(id)
		return []kvstore.KV{{Key: k, Value: v}}, func() { e.treeLocked(id) }
	})
	return err
}

// RecordVisit is the guaranteed-immediate foreground path for a page-view
// event: the visit row is written, with the rows of the pages it names
// for the first time, visibility updated, and the heavy analysis (fetch,
// index, classify, and a community visit's referrer edge) is queued for
// the background demons. Privacy Off means the event is acknowledged and
// discarded.
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
	_, err := e.ensurePages(urls, func(ids []int64) ([]kvstore.KV, func()) {
		r := visitRow{user: user, at: at.UnixNano(), id: e.nextVisit, page: ids[0], privacy: privacy}
		if referrer != "" {
			r.ref = ids[1]
		}
		k, v := r.record()
		return []kvstore.KV{{Key: k, Value: v}}, func() {
			e.nextVisit++
			e.markVisitedLocked(user, r.page, privacy)
		}
	})
	if err != nil {
		return err
	}
	e.stats.VisitsLogged.Add(1)
	e.enqueue(events.Event{Kind: events.VisitEvent, User: user, URL: url, Referrer: referrer, Privacy: privacy})
	return nil
}

// placement is one bookmark to file: url into folder at a time, under the
// title the user gave it (empty unless a bookmark file gave one).
type placement struct {
	url, title, folder string
	at                 time.Time
}

// AddBookmark files url into the user's folder (foreground path). The
// placement is a supervised training example for the user's classifier.
func (e *Engine) AddBookmark(user int64, url, folder string, at time.Time) error {
	if at.IsZero() {
		at = e.cfg.Now()
	}
	_, err := e.addBookmarks(user, []placement{{url: url, folder: folder, at: at}})
	return err
}

// addBookmarks files every placement as one write, queues each page's
// fetch so that training has text, and returns how many it filed.
func (e *Engine) addBookmarks(user int64, ps []placement) (int, error) {
	if err := e.fileBookmarks(user, ps); err != nil {
		return 0, err
	}
	e.stats.BookmarksLogged.Add(int64(len(ps)))
	for _, p := range ps {
		e.enqueue(events.Event{Kind: events.BookmarkEvent, User: user, URL: p.url})
	}
	return len(ps), nil
}

// CorrectPlacement moves a page to the right folder (the cut/paste
// reinforcement of Figure 1) and counts as a fresh training signal. A
// correction is a bookmark row, filed as AddBookmark files one.
func (e *Engine) CorrectPlacement(user int64, url, folder string) error {
	e.mu.RLock()
	_, ok := e.idByURL[url]
	e.mu.RUnlock()
	if !ok { // a page row is never deleted, so a known page stays known
		return fmt.Errorf("core: unknown page %q: %w", url, ErrInvalid)
	}
	return e.fileBookmarks(user, []placement{{url: url, folder: folder, at: e.cfg.Now()}})
}

// fileBookmarks writes one bookmark row per placement, in order, with the
// rows of the pages they name for the first time, as one commit, and then
// files them into the user's tree: a refused write leaves no row and the
// tree as it was.
func (e *Engine) fileBookmarks(user int64, ps []placement) error {
	urls := make([]string, len(ps))
	for i, p := range ps {
		urls[i] = p.url
	}
	_, err := e.ensurePages(urls, func(ids []int64) ([]kvstore.KV, func()) {
		rows := make([]bookmarkRow, len(ps))
		kvs := make([]kvstore.KV, len(ps))
		for i, p := range ps {
			rows[i] = bookmarkRow{id: e.nextBookmark + int64(i), user: user, page: ids[i], at: p.at.UnixNano(), title: p.title, folder: p.folder}
			kvs[i].Key, kvs[i].Value = rows[i].record()
		}
		return kvs, func() {
			e.nextBookmark += int64(len(rows))
			for _, r := range rows {
				e.fileLocked(r)
			}
		}
	})
	return err
}

// ImportBookmarks ingests a Netscape bookmark file for the user as one
// write: every entry is filed, in file order and under the file's title
// for it, or none is, and the count is 0 on any error.
func (e *Engine) ImportBookmarks(user int64, r io.Reader) (int, error) {
	tree, err := folders.ImportNetscape(r)
	if err != nil {
		return 0, fmt.Errorf("core: import: %w (%w)", err, ErrInvalid)
	}
	var ps []placement // flat, so that ensurePages files them in one loop
	tree.Walk(func(f *folders.Folder) {
		for _, entry := range f.Entries {
			ps = append(ps, placement{entry.URL, entry.Title, f.Path(), entry.Added})
		}
	})
	for i, p := range ps {
		if p.url == "" {
			return 0, fmt.Errorf("core: import: entry %d, in %s, has no URL: %w", i+1, p.folder, ErrInvalid)
		}
	}
	return e.addBookmarks(user, ps)
}

// ExportBookmarks writes the user's folder tree in Netscape format, each
// entry under the title its bookmark file gave it, or else its page's
// fetched title. It renders under e.mu into a buffer, which it writes to
// w once the lock is released.
func (e *Engine) ExportBookmarks(user int64, w io.Writer) error {
	var buf bytes.Buffer
	e.mu.RLock()
	tree := e.trees[user]
	if tree == nil {
		tree = folders.NewTree()
	}
	err := folders.ExportNetscape(tree, func(en folders.Entry) string {
		if en.Title != "" {
			return en.Title
		}
		return e.meta[en.Page].title
	}, &buf)
	e.mu.RUnlock()
	if err != nil {
		return err
	}
	_, err = w.Write(buf.Bytes())
	return err
}

// ensurePages is the engine's one row writer. It returns the page id of
// every url, in order, numbering never-seen ones in first-sight order from
// nextPage on; op, given those ids, returns the caller's rows and what to
// apply to the RAM mirror once they are in. The new page rows and op's
// rows are one commit, and the commit, the new meta and idByURL entries
// and apply are one e.mu write section. So an acknowledged write is one
// commit, a refused one changes nothing, an id is taken only by a
// committed row, and a map miss means no row (DESIGN.md §1). op and apply
// run under e.mu and must not block. Without op, urls that are all known
// are resolved under the read lock alone.
func (e *Engine) ensurePages(urls []string, op func(ids []int64) (rows []kvstore.KV, apply func())) ([]int64, error) {
	if op == nil {
		ids := make([]int64, len(urls))
		missing := false
		e.mu.RLock()
		for i, url := range urls {
			ids[i] = e.idByURL[url]
			missing = missing || ids[i] == 0 // ids start at 1
		}
		e.mu.RUnlock()
		if !missing {
			return ids, nil
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ensurePagesLocked(urls, op)
}

// ensurePagesLocked is ensurePages for a caller that holds e.mu for
// writing.
func (e *Engine) ensurePagesLocked(urls []string, op func(ids []int64) (rows []kvstore.KV, apply func())) ([]int64, error) {
	ids := make([]int64, len(urls))
	var rows []kvstore.KV
	fresh := map[string]int64{}
	for i, url := range urls {
		if ids[i] = e.idByURL[url]; ids[i] == 0 {
			if ids[i] = fresh[url]; ids[i] == 0 {
				ids[i] = e.nextPage + int64(len(fresh))
				fresh[url] = ids[i]
				k, v := pageRow{id: ids[i], url: url}.record()
				rows = append(rows, kvstore.KV{Key: k, Value: v})
			}
		}
	}
	var apply func()
	if op != nil {
		var own []kvstore.KV
		own, apply = op(ids)
		rows = append(rows, own...)
	}
	if len(rows) > 0 {
		if err := e.kv.PutBatch(rows); err != nil {
			return nil, err
		}
	}
	for url, id := range fresh {
		e.meta[id] = pageRec{url: url}
		e.idByURL[url] = id
	}
	e.nextPage += int64(len(fresh))
	if apply != nil {
		apply()
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

// analyzerLoop is the background demon body: it takes the refetch
// backlog, then the queued events, in groups and ingests each group in
// one pass.
func (e *Engine) analyzerLoop(stop <-chan struct{}) {
	buf := make([]events.Event, 0, groupMax)
	for {
		select {
		case <-stop:
			return
		default:
		}
		group := e.takeRefetch()
		if group == nil {
			var ok bool
			if group, ok = e.queue.PopBatch(buf[:0], groupMax); !ok {
				return
			}
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
	// The group's models are read in one section, not one a visit: the
	// foreground commits under e.mu, and every read-lock turn waits out one.
	models := map[int64]*classify.Bayes{}
	e.mu.RLock()
	for _, ev := range group {
		models[ev.User] = e.models[ev.User]
	}
	e.mu.RUnlock()
	for i, ev := range group {
		if model := models[ev.User]; model != nil && ev.Kind == events.VisitEvent {
			e.classifyForUser(model, ev.User, pages[i], tfs[pages[i]])
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
// claims them and commits the rows of their never-seen out-link targets
// in one e.mu section, which commits nothing when every target is known;
// and their tf/ records (titles included), lnk/ and rin/ records, the
// dict/ records they need and the edges are one version publish. It
// returns the raw term counts by id of every page this call resolved and
// published (a page another group claimed first publishes its out-links
// here all the same), and the first panic value of a Lookup, for the
// caller to raise again: such a page is skipped, and the rest of the
// group goes on.
//
// The out-link rows come before the publish because the lnk/ and rin/
// records name their targets by id, and an id exists only once its row
// is committed. If the commit fails, no claim stands; if a read the
// publish needs fails, every claim of the group is released, with the
// title it set in RAM. Either way nothing is indexed or published: the
// pages stay unfetched, FetchesFailed counts them, and their next visit —
// or requeueUnfetched at the next Open — tries again. By the time ingest
// returns, the latest published lnk/ record of each page it resolved holds
// the page's full out-link union, on both sides of a claim race.
func (e *Engine) ingest(pages []int64, edges []linkUpdate) (tfs map[int64]text.Vector, panicked any) {
	type fetch struct {
		page    int64
		url     string
		content Content
		tf      text.Vector
		claimed bool
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

	// Claim the pages in the section that resolves their out-links: two
	// workers can race on one URL, so only the claim winner may index it or
	// publish its tf/ record. Out-link URLs resolve to stable page ids in
	// the section's commit (seen-but-unfetched targets get their
	// pages-table row here — the durable half of the crawl frontier), and a
	// claim stands only once that commit is in. A loser publishes the
	// out-links it holds all the same — idempotent and serialized with the
	// winner under the link lock, so whichever side lands last leaves the
	// full union — because its caller may read the page's lnk/ record the
	// moment it returns.
	//
	// A link whose URL has no id yet, and is too long for a pages row
	// (kvstore.MaxKV) with the largest id this commit could give it, is
	// dropped rather than fail the commit, so the row store never refuses
	// a fetched fact. The check is made in the section that commits, where
	// "no id yet" still holds.
	e.mu.Lock()
	n := 0
	for _, f := range got {
		n += len(f.content.Links)
	}
	idLen := len(binary.AppendUvarint(nil, uint64(e.nextPage)+uint64(n)))
	rowless := func(url string) bool {
		return e.idByURL[url] == 0 && len(pagesPrefix)+len(url)+idLen > kvstore.MaxKV
	}
	var links []string
	for i := range got {
		f := &got[i]
		if slices.ContainsFunc(f.content.Links, rowless) {
			f.content.Links = slices.DeleteFunc(slices.Clone(f.content.Links), rowless)
		}
		links = append(links, f.content.Links...)
	}
	// mark sets every claimed page's fetched flag and its title, which
	// its tf/ record will hold, or clears both. Caller holds e.mu.
	mark := func(fetched bool) {
		for _, f := range got {
			if rec := e.meta[f.page]; f.claimed {
				rec.fetched, rec.title = fetched, ""
				if fetched {
					rec.title = f.content.Title
				}
				e.meta[f.page] = rec
			}
		}
	}
	claimed := 0
	ids, err := e.ensurePagesLocked(links, func([]int64) ([]kvstore.KV, func()) {
		for i := range got {
			if f := &got[i]; !e.meta[f.page].fetched {
				f.claimed = true
				claimed++
			}
		}
		return nil, func() { mark(true) }
	})
	e.mu.Unlock()
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
				u.title, u.tf = f.content.Title, &f.tf
			}
			updates = append(updates, u)
		}
		if err = e.links.publish(updates); err != nil {
			e.mu.Lock()
			mark(false)
			e.mu.Unlock()
		}
	}
	if err != nil {
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

// guessConfidence is the least posterior a classifier's folder needs to
// stand as a guess, filed or counted in a usage breakdown: below it the
// guess is too uncertain to bother the user with.
const guessConfidence = 0.4

// classifyForUser places the page into the user's folder space as a guess
// ('?' in the Figure 1 UI) by the user's trained classifier. tf is the
// page's term counts when the caller just fetched it; for pages fetched
// earlier (tf with nil IDs) the counts come from a pinned snapshot of the
// version store.
func (e *Engine) classifyForUser(model *classify.Bayes, user, pageID int64, tf text.Vector) {
	if tf.IDs == nil {
		e.withView(func(view *DerivedView) { tf = view.TermCounts(pageID) })
	}
	if tf.IDs == nil {
		return
	}
	folder, conf := model.ClassifyVector(tf)
	if conf < guessConfidence {
		return
	}
	e.mu.Lock()
	e.treeLocked(user).Add(folder, folders.Entry{
		Page: pageID, URL: e.meta[pageID].url,
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
