// Package core assembles every Memex subsystem into the server engine of
// Figure 3: typed table records hold page/visit/bookmark/user metadata
// (tables.go) and the version store's derived records term-level
// statistics and the link graph, all on one kvstore; the version store
// coordinates the single producer (the fetch/index path) with its
// consumers (classifier and theme demons), the event queue separates the
// guaranteed-immediate foreground path from asynchronous analysis, and the
// demon pool keeps the background mining running and restartable.
//
// # The foreground writes rows; the analyzers publish, in groups
//
// A visit, bookmark or whole import is acknowledged once its rows, and
// those of every page it is the first to name, are one kvstore commit
// (ensurePages, the one row writer), so it lands whole or not at all; the
// foreground publishes nothing and queues its events. Each analyzer demon
// takes the queued events in groups of up to groupMax
// (events.Queue.PopBatch) and ingests a group in one pass — one e.mu
// section claims its pages and commits the rows of their never-seen
// out-link targets, one version publish holds their derived records,
// titles included, and its community visits' referrer edges — so the
// analyzers' locks are taken per group, not per page. A committed row is
// never written again. A single event is a group of one; there is no
// per-event path beside it.
//
// # Derived page state lives only in the version store
//
// A page's derived data — its term-count record (tf/), from which term
// vectors are derived on demand, and its link-adjacency records (lnk/
// out-links, rin/ in-links) — has exactly one home: the epoch-layer
// store in internal/version, published by the fetch path as one batch per
// analyzer group (every page the group fetched, and the referrer edges of
// its community visits, land in the same epoch, so a snapshot can never
// see a page's text without its place in the link graph), held in RAM
// while hot and folded to the engine's kvstore
// ("vc/" keyspace) by the version-gc demon, so the archive grows on disk
// and survives restarts (Open restores the term dictionary from its dict/
// records, every term at its old id, replays the recovered tf/ records
// into the inverted index, and the fetch path skips recovered pages
// instead of re-crawling).
// There is no live map shadowing it. Every derived-data reader pins a
// DerivedView snapshot for its whole pass and is therefore
// snapshot-consistent:
//
//   - theme rebuilds (RebuildThemes) and user profiles (Profile,
//     Recommend) read vectors from one pinned epoch;
//   - usage breakdown, trail replay, and classifier guesses read term
//     counts the same way;
//   - trail popularity (HITS), recommend's link-proximity boost and
//     Discover's crawl frontier decode lnk/rin adjacency from the same
//     pinned view as their term-stat reads (graph.AdjacencySource);
//   - classifier retraining trains every user against a single epoch.
//
// There is no in-memory link structure. The producer in links.go rewrites
// a page's adjacency records from the records themselves, read at the
// latest publish under the one lock that publishes them, so each record is
// the union of everything published before it.
//
// # One in-RAM home per page fact
//
// What the engine keeps in memory about a page is held once (DESIGN.md
// tabulates every fact's durable and in-RAM home). Collection statistics
// — N and each term's DF — are the inverted index's own map sizes, read
// through idx.TFIDF; there is no separate corpus. Page metadata and the
// fetch claim are one pageRec per page; visibility is a visited set per
// user. e.mu guards that bookkeeping (folder trees, models, the taxonomy
// pointer, page records, visited sets, next ids) and the row commits that
// change it, and is never held across derived-data decoding, clustering,
// or training work.
package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"memex/internal/classify"
	"memex/internal/demon"
	"memex/internal/events"
	"memex/internal/folders"
	"memex/internal/kvstore"
	"memex/internal/text"
	"memex/internal/textindex"
	"memex/internal/themes"
	"memex/internal/version"
)

// Content is a resolved web page: what the fetch demon obtains for a URL.
type Content struct {
	URL   string
	Title string
	Text  string
	Links []string
}

// PageSource resolves URLs to content. Production Memex fetches the live
// Web; this reproduction plugs in the synthetic webcorpus (DESIGN.md §2).
type PageSource interface {
	Lookup(url string) (Content, bool)
}

// Config configures an engine, and is the one configuration: the memex
// facade's Config is an alias of it. A zero value of every field but Dir
// and Source is what the product runs: group commit, an event queue of
// eventQueueCap, analyzerCount analyzers and a version-gc tick every 2s.
type Config struct {
	// Dir is the storage directory (required).
	Dir string
	// Source resolves page content (required).
	Source PageSource
	// Durable fsyncs the WAL at every commit (kvstore.SyncAlways), so an
	// acknowledged write also survives a power cut. The default
	// (kvstore.SyncGroup) writes each commit to the OS and fsyncs at
	// checkpoints: an acknowledged write survives a process crash, not a
	// power cut.
	Durable bool
	// ThemeInterval rebuilds the community taxonomy periodically
	// (0 = only on demand via RebuildThemes).
	ThemeInterval time.Duration
	// TrainInterval retrains per-user classifiers periodically
	// (0 = only on demand via RetrainClassifiers).
	TrainInterval time.Duration
	// GCInterval folds version-store layers below the pin floor to the
	// cold tier off the hot path, once 4096 entries have gathered there
	// (0 = every 2s; negative disables the demon, and Close still folds).
	GCInterval time.Duration
	// Now injects the engine clock, for replaying historical traces and
	// for tests (default time.Now).
	Now func() time.Time

	// Set only by this package's tests; Open reads each when non-zero.
	queueSize int // event-queue capacity, instead of eventQueueCap
	workers   int // analyzer demons, instead of analyzerCount
	poolPages int // kvstore buffer pool in pages, instead of its default
}

// eventQueueCap bounds the background event queue: past it the oldest
// event is shed (events.Queue).
const eventQueueCap = 4096

// analyzerCount is the number of analyzer demons taking groups off the
// event queue.
const analyzerCount = 2

// kvOptions is the kvstore configuration cfg asks for.
func (cfg Config) kvOptions() kvstore.Options {
	sync := kvstore.SyncGroup
	if cfg.Durable {
		sync = kvstore.SyncAlways
	}
	return kvstore.Options{Sync: sync, CacheSize: cfg.poolPages}
}

// decodedCacheBytes bounds the shared decoded-record cache that sits
// between DerivedView and the version store (cache.go). The cache holds
// decoded term-count vectors and adjacency slices, so a working set of N hot
// pages costs very roughly N × (page term count × 12 B + in- and out-degree
// × 8 B); at this budget a second mining pass over ~100k modest pages stays
// fully warm.
const decodedCacheBytes = 32 << 20

// stemMemoEntries caps the engine's stem memo: with tokens of at most
// text's 64 remembered bytes, a few MiB at the very most — room for a
// large community's working vocabulary.
const stemMemoEntries = 1 << 16

// Engine is an embedded Memex server core.
type Engine struct {
	cfg  Config
	kv   *kvstore.Store
	vs   *version.Store
	dict *text.Dict
	idx  *textindex.Index // full-text search, and the collection's N and DF
	// stems memoises the stop list, the stemmer and the dictionary per raw
	// token for the fetch path, which resolves a page's terms to ids
	// through it; a bounded cache with no durable home.
	stems *text.StemMemo
	// links is the derived-state producer: every edge write and every
	// fetched page's tf/ record is a read-modify-write of the lnk/rin
	// adjacency records, published through the version store under its one
	// lock (see links.go). Read passes pin a DerivedView, whose Out/In/Has
	// decode the records at one epoch.
	links *linkIndex
	// cache is the shared decoded-record cache (cache.go): every
	// DerivedView of this engine consults it before decoding a tf/, lnk/
	// or rin/ record, so repeated passes over an unchanged epoch pay
	// decode cost once.
	cache *recordCache
	queue *events.Queue
	pool  *demon.Pool

	// mu guards page-metadata bookkeeping only (see the package doc);
	// derived page data is read through pinned DerivedView snapshots, never
	// under this lock.
	mu      sync.RWMutex
	trees   map[int64]*folders.Tree   // per-user folder space
	models  map[int64]*classify.Bayes // per-user folder classifier
	tax     *themes.Taxonomy
	meta    map[int64]pageRec // every known page, by id
	idByURL map[string]int64  // reverse lookup into meta
	// visited is visibility, held per user: the pages each user has a
	// visit row for (any privacy mode).
	visited map[int64]map[int64]bool
	// nextPage, nextVisit and nextBookmark are the ids the next page,
	// visit and bookmark rows take: an id is taken only by a committed row
	// (ensurePages), and reload recovers each from the records.
	nextPage, nextVisit, nextBookmark int64

	// refetch is the fetch backlog Open found (requeueUnfetched), which the
	// analyzers take in groups before they turn to the queue; refetchNext
	// is the index of its first event no analyzer has taken.
	refetch     []events.Event
	refetchNext atomic.Int64

	// pushed/processed (plus the queue's drop counter) account for
	// background work precisely, so DrainBackground cannot return while an
	// event is between PopBatch and completion. drained, on drainMu, is
	// where DrainBackground waits for them to meet, or for closed.
	pushed    atomic.Int64
	processed atomic.Int64
	drainMu   sync.Mutex
	drained   *sync.Cond
	stats     Counters
	closed    atomic.Bool

	// trainHook, set only by tests, runs in a training goroutine of
	// RetrainClassifiers before it trains user's model.
	trainHook func(user int64)
}

// pageRec is everything the engine keeps in RAM about one page. Records
// are map values: update one by writing the changed copy back under e.mu.
type pageRec struct {
	url string
	// title is the fetched page's title, which its tf/ record holds: set
	// with the claim, cleared if the claim's publish fails, and restored by
	// reloadDerived. It is the one copy: a folder entry carries only the
	// title a bookmark file gave it, which its b/ row holds.
	title string
	// fetched is the fetch path's claim and the one answer to "is this
	// page fetched?": the page's derived stats have been (or are being)
	// published, or were recovered from the cold tier at open. It
	// arbitrates the two-workers-one-URL race under the full lock.
	fetched bool
	// community is set once any visit archived the page for community use.
	community bool
}

// Counters reports engine activity.
type Counters struct {
	VisitsLogged    atomic.Int64
	BookmarksLogged atomic.Int64
	PagesFetched    atomic.Int64
	FetchesFailed   atomic.Int64
}

// Open builds the engine over the given directory.
func Open(cfg Config) (*Engine, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("core: Config.Dir required")
	}
	if cfg.Source == nil {
		return nil, fmt.Errorf("core: Config.Source required")
	}
	if cfg.queueSize == 0 {
		cfg.queueSize = eventQueueCap
	}
	if cfg.workers == 0 {
		cfg.workers = analyzerCount
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.GCInterval == 0 {
		cfg.GCInterval = 2 * time.Second
	}
	kv, err := kvstore.Open(cfg.Dir, cfg.kvOptions())
	if err != nil {
		return nil, err
	}
	if err := checkFormat(kv); err != nil {
		kv.Close()
		return nil, err
	}
	// The version store shares the engine's kvstore: GC folds cold derived
	// records into the "vc/" keyspace (beside the tables' keyspaces) and
	// recovers them here on reopen, so derived page state survives restarts
	// on bounded memory.
	vs, err := version.Open(kv, "vc/", version.Options{})
	if err != nil {
		kv.Close()
		return nil, err
	}
	dict := text.NewDict()
	idx := textindex.New(dict)
	e := &Engine{
		cfg:     cfg,
		kv:      kv,
		vs:      vs,
		dict:    dict,
		idx:     idx,
		stems:   text.NewStemMemo(dict, stemMemoEntries),
		links:   newLinkIndex(vs, dict, idx),
		cache:   newRecordCache(decodedCacheBytes),
		queue:   events.NewQueue(cfg.queueSize),
		pool:    demon.NewPool(),
		trees:   map[int64]*folders.Tree{},
		models:  map[int64]*classify.Bayes{},
		meta:    map[int64]pageRec{},
		idByURL: map[string]int64{},
		visited: map[int64]map[int64]bool{},
	}
	e.drained = sync.NewCond(&e.drainMu)
	refs, err := e.reload()
	if err != nil {
		kv.Close()
		return nil, err
	}
	// Replay recovered derived records into the in-memory text machinery
	// (dictionary, inverted index) so queries work immediately after a
	// restart and the fetch path skips every recovered page.
	if err := e.reloadDerived(); err != nil {
		kv.Close()
		return nil, err
	}
	if err := e.republishReferrerEdges(refs); err != nil {
		kv.Close()
		return nil, err
	}
	e.requeueUnfetched()
	e.startDemons()
	return e, nil
}

// reload rebuilds in-memory state (users, page metadata, folder trees,
// visibility, the next ids) from the table records after a restart. It
// also returns every community visit's referrer→page transition, keyed by
// referrer, for republishReferrerEdges.
func (e *Engine) reload() (refs map[int64][]int64, err error) {
	// Registered users: a user with visits but no bookmarks must still
	// count in Status and stand as a Recommend peer.
	err = usersTable.scanAll(e.kv, func(id int64) bool {
		e.treeLocked(id)
		return true
	})
	if err != nil {
		return nil, err
	}
	// Page metadata, and the next ids: one past the largest each table
	// holds. The key makes a url's record unique but not its id: two
	// records naming one id fail Open, where keeping either would hand the
	// other url's visits, links and terms to the wrong page.
	e.nextPage, e.nextVisit, e.nextBookmark = 1, 1, 1
	var dup error
	err = pagesTable.scanAll(e.kv, func(r pageRow) bool {
		if prev, ok := e.meta[r.id]; ok {
			dup = fmt.Errorf("core: table %q: page id %d is named by two records, %q and %q", pagesTable.name, r.id, prev.url, r.url)
			return false
		}
		e.meta[r.id] = pageRec{url: r.url}
		e.idByURL[r.url] = r.id
		e.nextPage = max(e.nextPage, r.id+1)
		return true
	})
	if err == nil {
		err = dup
	}
	if err != nil {
		return nil, err
	}
	// Folder trees from bookmarks, in id order.
	err = bookmarksTable.scanAll(e.kv, func(r bookmarkRow) bool {
		e.fileLocked(r)
		e.nextBookmark = r.id + 1
		return true
	})
	if err != nil {
		return nil, err
	}
	// Visibility and the community visits' referrer transitions from
	// visits, which are keyed by user first: their ids are in key order
	// only within a (user, time).
	refs = map[int64][]int64{}
	err = visitsTable.scanAll(e.kv, func(r visitRow) bool {
		e.markVisitedLocked(r.user, r.page, r.privacy)
		if r.ref != 0 && r.privacy == events.Community {
			refs[r.ref] = append(refs[r.ref], r.page)
		}
		e.nextVisit = max(e.nextVisit, r.id+1)
		return true
	})
	return refs, err
}

// republishReferrerEdges publishes every community visit's referrer→page
// edge that the latest lnk/ record of its referrer lacks, as one batch.
// The analyzers publish the edge after the visit row is written and
// acknowledged, and the edge reaches disk only in a fold, so a crash — or
// an event shed from a full queue — can keep the row and lose the edge;
// the row is the durable evidence, and this re-derives the edge from it.
// publish's known-edge check reads every referrer's record and publishes
// nothing when a fold already covered them all, as after a clean Close.
// Runs during Open, after reloadDerived has counted the recovered edges,
// before any demon starts.
func (e *Engine) republishReferrerEdges(refs map[int64][]int64) error {
	updates := make([]linkUpdate, 0, len(refs))
	for ref, pages := range refs {
		updates = append(updates, linkUpdate{from: ref, targets: pages})
	}
	if err := e.links.publish(updates); err != nil {
		return fmt.Errorf("core: republish the referrer edges of %d pages: %w", len(updates), err)
	}
	return nil
}

// requeueUnfetched lists a fetch for every visited or bookmarked page
// that came back without a tf/ record: the event queue is memory-only and
// Close does not drain it, so a fetch still queued at shutdown, one lost
// with the unfolded records in a crash, or one the source could not serve
// that life, would otherwise wait for a revisit. The list is the refetch
// backlog, not the queue, which past its capacity sheds the oldest event:
// after a crash the list can run to thousands of pages. DrainBackground
// counts it like pushed events. Sorted id order keeps the refetch order
// reproducible. Runs during Open, single-threaded, after reloadDerived.
func (e *Engine) requeueUnfetched() {
	var pages []int64
	note := func(page int64) {
		if !e.meta[page].fetched {
			pages = append(pages, page)
		}
	}
	for _, set := range e.visited {
		for page := range set {
			note(page)
		}
	}
	for _, tree := range e.trees {
		tree.Walk(func(f *folders.Folder) {
			for _, entry := range f.Entries {
				note(entry.Page)
			}
		})
	}
	slices.Sort(pages)
	for _, page := range slices.Compact(pages) {
		// An event of no Kind is fetch-only: process fetches and indexes
		// the page and classifies it for nobody.
		e.refetch = append(e.refetch, events.Event{URL: e.meta[page].url})
	}
	e.pushed.Add(int64(len(e.refetch)))
}

// takeRefetch returns the next group of at most groupMax events of the
// refetch backlog, or nil once every event of it is taken.
func (e *Engine) takeRefetch() []events.Event {
	end := e.refetchNext.Add(groupMax)
	if start := end - groupMax; start < int64(len(e.refetch)) {
		return e.refetch[start:min(end, int64(len(e.refetch)))]
	}
	return nil
}

// enqueue queues ev for the analyzers and counts it for DrainBackground
// where the queue takes it: a closed queue ignores a push, and an event
// it never held is not waited for.
func (e *Engine) enqueue(ev events.Event) {
	if e.queue.Push(ev) {
		e.pushed.Add(1)
	}
}

// markVisitedLocked records that user has a visit row for page, and that
// the page is community-visible when the visit was archived for community
// use. Caller must hold e.mu or be in single-threaded setup.
func (e *Engine) markVisitedLocked(user, page int64, privacy events.Privacy) {
	set := e.visited[user]
	if set == nil {
		set = map[int64]bool{}
		e.visited[user] = set
	}
	set[page] = true
	if privacy == events.Community {
		rec := e.meta[page]
		rec.community = true
		e.meta[page] = rec
	}
}

func (e *Engine) startDemons() {
	for w := 0; w < e.cfg.workers; w++ {
		e.pool.Go(fmt.Sprintf("analyzer-%d", w), e.analyzerLoop)
	}
	if e.cfg.ThemeInterval > 0 {
		e.pool.Every("themes", e.cfg.ThemeInterval, func() { e.RebuildThemes() })
	}
	if e.cfg.TrainInterval > 0 {
		e.pool.Every("trainer", e.cfg.TrainInterval, e.RetrainClassifiers)
	}
	if e.cfg.GCInterval > 0 {
		// Folding version-store layers to the cold tier runs as its own
		// demon so neither the publish path nor snapshot readers pay it.
		e.pool.Every("version-gc", e.cfg.GCInterval, func() {
			e.vs.GC()
			// Published epochs are immutable, so the decoded-record cache
			// never needs write invalidation — but once the pin floor moves
			// past an epoch no live or future view can ask for it again, so
			// its entries are reclaimed here.
			e.cache.evictBelow(e.vs.PinFloor())
		})
	}
}

// treeLocked returns (creating) the user's folder tree. Caller must hold
// e.mu or be in single-threaded setup.
func (e *Engine) treeLocked(user int64) *folders.Tree {
	t := e.trees[user]
	if t == nil {
		t = folders.NewTree()
		e.trees[user] = t
	}
	return t
}

// fileLocked files a bookmark row into its user's folder tree. Every user
// placement reaches a tree this way, live and in reload, so a tree after
// Open is the tree before Close, classifier guesses aside. Caller must hold e.mu or be in
// single-threaded setup.
func (e *Engine) fileLocked(r bookmarkRow) {
	e.treeLocked(r.user).Add(r.folder, folders.Entry{
		Page:  r.page,
		URL:   e.meta[r.page].url,
		Title: r.title,
		Added: time.Unix(0, r.at).UTC(),
	})
}

// Stats is a point-in-time snapshot of engine counters.
type Stats struct {
	Users        int
	Pages        int
	PagesIndexed int
	// PagesFetched counts pages this process fetched from the source; a
	// restarted server serving recovered derived state keeps it at zero
	// until a genuinely new page arrives (the fetch path skips recovered
	// pages instead of re-crawling).
	PagesFetched int64
	// FetchesFailed counts the pages whose claim did not stand because
	// their group's row commit, or a record their group's publish
	// rewrites, failed: every page the group claimed counts. Such a page
	// stays unfetched — nothing of it is indexed or published — and its
	// next visit, or the next Open, retries.
	FetchesFailed int64
	Visits        int64
	Bookmarks     int64
	Pressure      // as of this snapshot
	EventsDropped uint64
	Themes        int
	DiskBytes     int64
	// KV reports the backing kvstore: buffer-pool counters, and the WAL
	// commits and bytes this process has written — rows and cold-tier folds
	// alike.
	KV kvstore.Stats
	// Demons lists every demon that has panicked: how often the pool
	// restarted it, and the last panic value and time.
	Demons map[string]demon.Status
	// GraphEdges counts the link graph's directed edges: the ids in every
	// lnk/ record. After a restart it is the same before any fetch: Open
	// counts the ids of the recovered records.
	GraphEdges int
	// Terms is the term dictionary's size. Every term has its dict/ record
	// from the batch of the first page that names it, so a restart gives
	// back the same count and every term its old id.
	Terms int
	// Version reports the derived-data version store: watermark, layer
	// count, pinned snapshots, and cumulative GC work.
	Version version.Stats
	// Cache reports the shared decoded-record cache: hit/miss counters,
	// eviction counts split by cause, and the approximate decoded footprint
	// against its bound.
	Cache CacheStats
}

// Status reports engine state.
func (e *Engine) Status() Stats {
	e.mu.RLock()
	users := len(e.trees)
	themesN := 0
	if e.tax != nil {
		themesN = len(e.tax.Themes)
	}
	pages := len(e.meta)
	e.mu.RUnlock()
	return Stats{
		Cache:         e.cache.stats(),
		GraphEdges:    int(e.links.edges.Load()),
		Terms:         e.dict.Size(),
		Users:         users,
		Pages:         pages,
		PagesIndexed:  e.idx.Docs(),
		PagesFetched:  e.stats.PagesFetched.Load(),
		FetchesFailed: e.stats.FetchesFailed.Load(),
		Visits:        e.stats.VisitsLogged.Load(),
		Bookmarks:     e.stats.BookmarksLogged.Load(),
		Pressure:      e.Pressure(),
		EventsDropped: e.queue.Dropped(),
		Themes:        themesN,
		DiskBytes:     e.kv.DiskBytes(),
		KV:            e.kv.Stats(),
		Demons:        e.pool.Status(),
		Version:       e.vs.StoreStats(),
	}
}

// Pressure is the engine's cheap backpressure signal set, read by the
// HTTP layer on every write request. Unlike Status (which walks the
// version chain), each field costs one queue-mutex acquisition or a
// lock-free atomic load, so polling it per-request is free.
type Pressure struct {
	// QueueDepth/QueueCap describe the background event queue. The queue
	// itself never blocks producers — it sheds the *oldest* event under
	// overflow — so a rising depth is the earliest sign that ingest is
	// outrunning the analyzers and data is about to be dropped silently.
	// It is the one admission input: the server sheds writes on it.
	QueueDepth int
	QueueCap   int
	// FoldLag is the published watermark minus the durable fold
	// watermark: how many publishes the GC/fold demon has yet to fold.
	// It is for observability only (/api/status,
	// memex_version_fold_lag_epochs): a publish is an analyzer group of
	// 1–256 events, so the lag bounds neither memory nor what a crash
	// costs, since Open re-derives every unfolded record from the rows.
	FoldLag uint64
	// Backlog counts the background work not yet done: queued events,
	// the groups the analyzers hold, and the refetches Open listed
	// (requeueUnfetched) that no analyzer has taken yet. It reads 0
	// exactly when DrainBackground would return. It is for observability
	// only (/api/status, memex_engine_backlog): the refetches are no
	// writer's doing, so admission does not read it.
	Backlog int64
}

// Pressure returns the current backpressure signals.
func (e *Engine) Pressure() Pressure {
	p := Pressure{
		QueueDepth: e.queue.Len(),
		QueueCap:   e.queue.Cap(),
		Backlog:    e.backlog(),
	}
	wm, cold := e.vs.Watermark(), e.vs.ColdWatermark()
	if wm > cold {
		p.FoldLag = wm - cold
	}
	return p
}

// DrainBackground blocks until the background queue and the refetch
// backlog are empty and all in-flight analysis has finished, or until the
// engine is closed (tests and benchmarks). It sleeps on drained, which the
// analyzer that finishes the last outstanding group wakes, and which Close
// wakes, so it returns as soon as either happens. Close stops the
// analyzers with events still queued; their pages are not lost: the next
// Open lists a fetch for every page still without a tf/ record
// (requeueUnfetched) and republishes every community visit's referrer
// edge (republishReferrerEdges).
func (e *Engine) DrainBackground() {
	e.drainMu.Lock()
	for !e.caughtUp() && !e.closed.Load() {
		e.drained.Wait()
	}
	e.drainMu.Unlock()
}

// backlog counts the pushed events, refetches included, that are neither
// processed nor shed. It reads pushed last, and an event is counted there
// before it can be processed or shed, so the count is never below zero.
func (e *Engine) backlog() int64 {
	done := e.processed.Load() + int64(e.queue.Dropped())
	return max(0, e.pushed.Load()-done)
}

// caughtUp reports whether every pushed event, and every refetch, is
// processed or shed.
func (e *Engine) caughtUp() bool { return e.backlog() == 0 }

// finished counts n events processed and, once nothing is outstanding,
// wakes the drain waiters. The broadcast is made under drainMu, so a
// waiter that found work outstanding is already asleep by then.
func (e *Engine) finished(n int) {
	e.processed.Add(int64(n))
	if e.caughtUp() {
		e.drainMu.Lock()
		e.drained.Broadcast()
		e.drainMu.Unlock()
	}
}

// Close stops demons, wakes every DrainBackground, and releases storage.
// Events still queued are left for the next Open. The version store folds
// its remaining in-memory tier to the cold keyspace first (demons are
// already stopped, so nothing pins a snapshot or publishes concurrently),
// which is what makes a graceful restart lose zero derived epochs; only
// then does the backing kvstore close.
func (e *Engine) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	e.queue.Close()
	e.pool.Stop()
	e.drainMu.Lock()
	e.drained.Broadcast()
	e.drainMu.Unlock()
	if err := e.vs.Close(); err != nil {
		e.kv.Close()
		return err
	}
	return e.kv.Close()
}
