// Package core assembles every Memex subsystem into the server engine of
// Figure 3: the RDBMS holds page/link/user/topic metadata, the kvstore
// holds term-level statistics, the version store coordinates the single
// producer (the fetch/index path) with its consumers (classifier and theme
// demons), the event queue separates the guaranteed-immediate foreground
// path from asynchronous analysis, and the demon pool keeps the background
// mining running and restartable.
//
// # Derived page state lives only in the version store
//
// A page's derived data — its term-count record (tf/), from which term
// vectors are derived on demand, and its link-adjacency records (lnk/
// out-links, rin/ in-links) — has exactly one home: the epoch-layer
// store in internal/version, published by the fetch path as
// one batch per page (terms and links land in the same epoch, so a
// snapshot can never see a page's text without its place in the link
// graph), held in RAM while hot and folded to the engine's kvstore
// ("vc/" keyspace) by the version-gc demon, so the archive grows on disk
// and survives restarts (Open restores the term dictionary from its dict/
// records, every term at its old id, replays the recovered records into
// the inverted index and link-graph authority, and the fetch path skips
// recovered pages instead of re-crawling).
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
// The only in-memory link structure is the producer-side authority in
// links.go: a graph rebuilt from recovered records at Open, consulted
// and updated under one lock so each published adjacency record is the
// union of everything published before it. Read passes never touch it.
//
// # One in-RAM home per page fact
//
// What the engine keeps in memory about a page is held once (DESIGN.md
// tabulates every fact's durable and in-RAM home). Collection statistics
// — N and each term's DF — are the inverted index's own map sizes, read
// through idx.TFIDF; there is no separate corpus. Page metadata and the
// fetch claim are one pageRec per page; visibility is a visited set per
// user. e.mu guards exactly that bookkeeping — folder trees, models, the
// taxonomy pointer, the page records and the visited sets — and is never
// held across derived-data decoding, clustering, or training work.
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
	"memex/internal/rdbms"
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

// Config tunes the engine.
type Config struct {
	// Dir is the storage directory (required).
	Dir string
	// Source resolves page content (required).
	Source PageSource
	// KV configures the backing kvstore.
	KV kvstore.Options
	// QueueSize bounds the background event queue (default 4096).
	QueueSize int
	// Workers is the number of analyzer demons (default 2).
	Workers int
	// ThemeInterval rebuilds the community taxonomy periodically
	// (0 = only on demand via RebuildThemes).
	ThemeInterval time.Duration
	// TrainInterval retrains per-user classifiers periodically
	// (0 = only on demand via RetrainClassifiers).
	TrainInterval time.Duration
	// VersionGCInterval folds version-store layers below the pin floor to
	// the cold tier off the hot path, once 4096 entries have gathered there
	// (default 2s; negative disables the demon, and Close still folds).
	VersionGCInterval time.Duration
	// DecodedCacheBytes bounds the shared decoded-record cache that sits
	// between DerivedView and the version store (cache.go): 0 takes the
	// default (32 MiB), negative disables caching. Sizing guidance: the
	// cache holds decoded tf maps, adjacency slices and term vectors, so
	// a working set of N hot pages costs very roughly N × (page term
	// count × 40 B); at the default a second mining pass over ~100k
	// modest pages stays fully warm.
	DecodedCacheBytes int64
	// Now injects a clock for tests (default time.Now).
	Now func() time.Time
}

// defaultDecodedCacheBytes is the decoded-record cache budget when the
// config leaves it zero.
const defaultDecodedCacheBytes = 32 << 20

// stemMemoEntries caps the engine's stem memo: with tokens of at most
// text's 64 remembered bytes, a few MiB at the very most — room for a
// large community's working vocabulary.
const stemMemoEntries = 1 << 16

// Engine is an embedded Memex server core.
type Engine struct {
	cfg  Config
	db   *rdbms.DB
	kv   *kvstore.Store
	vs   *version.Store
	dict *text.Dict
	idx  *textindex.Index // full-text search, and the collection's N and DF
	// stems memoises the stop list and stemmer per raw token for the fetch
	// path's tokenizing; a bounded cache with no durable home.
	stems *text.StemMemo
	// links is the link-graph producer: every edge write publishes
	// lnk/rin adjacency records through the version store before touching
	// the in-memory authority graph (see links.go). Read passes never use
	// it directly — they pin a DerivedView, whose Out/In/Has decode the
	// records at one epoch.
	links *linkIndex
	// cache is the shared decoded-record cache (cache.go): every
	// DerivedView of this engine consults it before decoding a tf/, lnk/
	// or rin/ record, so repeated passes over an unchanged epoch pay
	// decode cost once. nil when DecodedCacheBytes < 0.
	cache *recordCache
	queue *events.Queue
	pool  *demon.Pool

	pages     *rdbms.Table
	visits    *rdbms.Table
	bookmarks *rdbms.Table
	usersTbl  *rdbms.Table

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

	// pushed/processed (plus the queue's drop counter) account for
	// background work precisely, so DrainBackground cannot return while an
	// event is between Pop and completion.
	pushed    atomic.Int64
	processed atomic.Int64
	stats     Counters
	closed    bool
}

// pageRec is everything the engine keeps in RAM about one page. Records
// are map values: update one by writing the changed copy back under e.mu.
type pageRec struct {
	url   string
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
	if cfg.QueueSize == 0 {
		cfg.QueueSize = 4096
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.VersionGCInterval == 0 {
		cfg.VersionGCInterval = 2 * time.Second
	}
	if cfg.DecodedCacheBytes == 0 {
		cfg.DecodedCacheBytes = defaultDecodedCacheBytes
	}
	kv, err := kvstore.Open(cfg.Dir, cfg.KV)
	if err != nil {
		return nil, err
	}
	db, err := rdbms.NewOn(kv)
	if err != nil {
		kv.Close()
		return nil, err
	}
	// The version store shares the engine's kvstore: GC folds cold derived
	// records into the "vc/" keyspace (beside the RDBMS's "tbl/"/"cat/"
	// keyspaces) and recovers them here on reopen, so derived page state
	// survives restarts on bounded memory.
	vs, err := version.Open(kv, "vc/", version.Options{})
	if err != nil {
		kv.Close()
		return nil, err
	}
	dict := text.NewDict()
	e := &Engine{
		cfg:     cfg,
		db:      db,
		kv:      kv,
		vs:      vs,
		dict:    dict,
		stems:   text.NewStemMemo(stemMemoEntries),
		links:   newLinkIndex(vs, dict),
		cache:   newRecordCache(cfg.DecodedCacheBytes),
		queue:   events.NewQueue(cfg.QueueSize),
		pool:    demon.NewPool(),
		trees:   map[int64]*folders.Tree{},
		models:  map[int64]*classify.Bayes{},
		meta:    map[int64]pageRec{},
		idByURL: map[string]int64{},
		visited: map[int64]map[int64]bool{},
	}
	e.idx = textindex.New(e.dict)
	if err := e.createTables(); err != nil {
		kv.Close()
		return nil, err
	}
	if err := e.reload(); err != nil {
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
	e.requeueUnfetched()
	e.startDemons()
	return e, nil
}

// createTables declares the durable layout (DESIGN.md §1). EnsureTable
// refuses a catalog that holds any other schema, and Open passes that on.
func (e *Engine) createTables() error {
	var err error
	e.pages, err = e.db.EnsureTable(rdbms.Schema{
		Name: "pages",
		Columns: []rdbms.Column{
			{Name: "id", Type: rdbms.TInt},
			{Name: "url", Type: rdbms.TString},
			{Name: "title", Type: rdbms.TString},
		},
		Key: "id",
	})
	if err != nil {
		return err
	}
	e.visits, err = e.db.EnsureTable(rdbms.Schema{
		Name: "visits",
		Columns: []rdbms.Column{
			{Name: "id", Type: rdbms.TInt},
			{Name: "user", Type: rdbms.TInt},
			{Name: "page", Type: rdbms.TInt},
			{Name: "ref", Type: rdbms.TInt},
			{Name: "time", Type: rdbms.TTime},
			{Name: "privacy", Type: rdbms.TInt},
		},
		Key:     "id",
		Indexes: []string{"user"}, // read by windowQuery
	})
	if err != nil {
		return err
	}
	e.bookmarks, err = e.db.EnsureTable(rdbms.Schema{
		Name: "bookmarks",
		Columns: []rdbms.Column{
			{Name: "id", Type: rdbms.TInt},
			{Name: "user", Type: rdbms.TInt},
			{Name: "page", Type: rdbms.TInt},
			{Name: "folder", Type: rdbms.TString},
			{Name: "time", Type: rdbms.TTime},
		},
		Key: "id",
	})
	if err != nil {
		return err
	}
	e.usersTbl, err = e.db.EnsureTable(rdbms.Schema{
		Name: "users",
		Columns: []rdbms.Column{
			{Name: "id", Type: rdbms.TInt},
			{Name: "name", Type: rdbms.TString},
		},
		Key: "id",
	})
	return err
}

// reload rebuilds in-memory state (users, page metadata, folder trees,
// visibility) from the persistent tables after a restart.
func (e *Engine) reload() error {
	// Registered users: a user with visits but no bookmarks must still
	// count in Status and stand as a Recommend peer.
	err := e.usersTbl.Select().Each(func(r rdbms.Row) bool {
		e.treeLocked(r.MustInt("id"))
		return true
	})
	if err != nil {
		return err
	}
	// Page metadata.
	err = e.pages.Select().Each(func(r rdbms.Row) bool {
		id, url := r.MustInt("id"), r.MustString("url")
		e.meta[id] = pageRec{url: url, title: r.MustString("title")}
		e.idByURL[url] = id
		return true
	})
	if err != nil {
		return err
	}
	// Folder trees from bookmarks.
	err = e.bookmarks.Select().Each(func(r rdbms.Row) bool {
		page := r.MustInt("page")
		rec := e.meta[page]
		e.treeLocked(r.MustInt("user")).Add(r.MustString("folder"), folders.Entry{
			Page:  page,
			URL:   rec.url,
			Title: rec.title,
			Added: r.MustTime("time"),
		})
		return true
	})
	if err != nil {
		return err
	}
	// Visibility from visits.
	return e.visits.Select().Each(func(r rdbms.Row) bool {
		e.markVisitedLocked(r.MustInt("user"), r.MustInt("page"), events.Privacy(r.MustInt("privacy")))
		return true
	})
}

// requeueUnfetched queues a fetch for every visited or bookmarked page
// that came back without a tf/ record: the event queue is memory-only and
// Close does not drain it, so a fetch still queued at shutdown, or one the
// source could not serve that life, would otherwise wait for a revisit.
// Sorted id order keeps the refetch order reproducible. Runs during Open,
// single-threaded, after reloadDerived.
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
		e.pushed.Add(1)
		e.queue.Push(events.Event{URL: e.meta[page].url})
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
	for w := 0; w < e.cfg.Workers; w++ {
		e.pool.Add(&demon.Func{
			TaskName: fmt.Sprintf("analyzer-%d", w),
			Body:     e.analyzerLoop,
		})
	}
	if e.cfg.ThemeInterval > 0 {
		e.pool.Add(&demon.Periodic{
			TaskName: "themes",
			Interval: e.cfg.ThemeInterval,
			Tick:     func() { e.RebuildThemes() },
		})
	}
	if e.cfg.TrainInterval > 0 {
		e.pool.Add(&demon.Periodic{
			TaskName: "trainer",
			Interval: e.cfg.TrainInterval,
			Tick:     func() { e.RetrainClassifiers() },
		})
	}
	if e.cfg.VersionGCInterval > 0 {
		// Folding version-store layers to the cold tier runs as its own
		// demon so neither the publish path nor snapshot readers pay it.
		e.pool.Add(&demon.Periodic{
			TaskName: "version-gc",
			Interval: e.cfg.VersionGCInterval,
			Tick: func() {
				e.vs.GC()
				// Published epochs are immutable, so the decoded-record
				// cache never needs write invalidation — but once the pin
				// floor moves past an epoch no live or future view can ask
				// for it again, so its entries are reclaimed here.
				if e.cache != nil {
					e.cache.evictBelow(e.vs.PinFloor())
				}
			},
		})
	}
	e.pool.Start()
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
	// FetchesFailed counts fetches whose claim winner gave the claim back
	// because a row could not be written (the one bump site is that revert).
	// Such a page stays unfetched — nothing of it is indexed or published —
	// and its next visit, or the next Open, retries.
	FetchesFailed int64
	Visits        int64
	Bookmarks     int64
	QueueDepth    int    // Pressure.QueueDepth as of this snapshot
	QueueCap      int    // Pressure.QueueCap
	FoldLag       uint64 // Pressure.FoldLag as of this snapshot
	EventsDropped uint64
	Themes        int
	DiskBytes     int64
	// KV reports the backing kvstore: buffer-pool counters, and the WAL
	// commits and bytes this process has written — rows, sequence values
	// and cold-tier folds alike.
	KV kvstore.Stats
	// Demons lists every demon that has panicked: how often the pool
	// restarted it, and the last panic value and time.
	Demons map[string]demon.Status
	// GraphNodes/GraphEdges size the recovered+live link graph (pages
	// known to the hyperlink structure and directed edges between them).
	// After a restart they are nonzero before any fetch: the adjacency
	// came back from the version store's recovered lnk/ records.
	GraphNodes int
	GraphEdges int
	// Terms is the term dictionary's size. Every term has its dict/ record
	// from the batch of the first page that names it, so a restart gives
	// back the same count and every term its old id.
	Terms int
	// Version reports the derived-data version store: watermark, layer
	// count, pinned snapshots, and cumulative GC work.
	Version version.Stats
	// Cache reports the shared decoded-record cache: hit/miss counters
	// (cross-view reuse), eviction counts split by cause, and the
	// approximate decoded footprint against its bound. All zero when the
	// cache is disabled.
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
	p := e.Pressure()
	nodes, edges := e.links.Counts()
	var cs CacheStats
	if e.cache != nil {
		cs = e.cache.stats()
	}
	return Stats{
		Cache:         cs,
		GraphNodes:    nodes,
		GraphEdges:    edges,
		Terms:         e.dict.Size(),
		Users:         users,
		Pages:         pages,
		PagesIndexed:  e.idx.Docs(),
		PagesFetched:  e.stats.PagesFetched.Load(),
		FetchesFailed: e.stats.FetchesFailed.Load(),
		Visits:        e.stats.VisitsLogged.Load(),
		Bookmarks:     e.stats.BookmarksLogged.Load(),
		QueueDepth:    p.QueueDepth,
		QueueCap:      p.QueueCap,
		FoldLag:       p.FoldLag,
		EventsDropped: e.queue.Dropped(),
		Themes:        themesN,
		DiskBytes:     e.kv.DiskBytes(),
		KV:            e.kv.Stats(),
		Demons:        e.pool.Status(),
		Version:       e.vs.StoreStats(),
	}
}

// Pressure is the engine's cheap backpressure signal set, read by the
// HTTP layer's admission control on every write request. Unlike Status
// (which walks the version chain), each field costs one queue-mutex
// acquisition or a lock-free atomic load, so polling it per-request is
// free.
type Pressure struct {
	// QueueDepth/QueueCap describe the background event queue. The queue
	// itself never blocks producers — it sheds the *oldest* event under
	// overflow — so a rising depth is the earliest sign that ingest is
	// outrunning the analyzers and data is about to be dropped silently.
	QueueDepth int
	QueueCap   int
	// FoldLag is the published watermark minus the durable fold
	// watermark: how many epochs of derived state a crash would lose, and
	// a proxy for how far the GC/fold demon has fallen behind publishes.
	FoldLag uint64
}

// Pressure returns the current backpressure signals.
func (e *Engine) Pressure() Pressure {
	p := Pressure{
		QueueDepth: e.queue.Len(),
		QueueCap:   e.queue.Cap(),
	}
	wm, cold := e.vs.Watermark(), e.vs.ColdWatermark()
	if wm > cold {
		p.FoldLag = wm - cold
	}
	return p
}

// DrainBackground blocks until the background queue is empty and all
// in-flight analysis has finished (tests and benchmarks).
func (e *Engine) DrainBackground() {
	for {
		done := e.processed.Load() + int64(e.queue.Dropped())
		if done >= e.pushed.Load() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Close stops demons and releases storage. The version store folds its
// remaining in-memory tier to the cold keyspace first (demons are already
// stopped, so nothing pins a snapshot or publishes concurrently), which
// is what makes a graceful restart lose zero derived epochs; only then
// does the backing kvstore close.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	e.queue.Close()
	e.pool.Stop()
	if err := e.vs.Close(); err != nil {
		e.kv.Close()
		return err
	}
	return e.kv.Close()
}
