package core

import (
	"sync"
	"sync/atomic"

	"memex/internal/text"
)

// This file is the engine's shared decoded-record cache: the one in-RAM
// home of decoded tf/, lnk/ and rin/ records, between DerivedView and
// Snapshot.Get. It keeps decode cost scaling with the number of pages
// rather than the number of reads: repeat reads within one view, and a
// themes rebuild, a Trails HITS pass and a Recommend call over the same
// epoch, decode each record once. The cache is keyed by (epoch, page,
// kind): published epochs are immutable — no publish and no cold fold ever
// rewrites a record under an installed state — so a decoded value can never
// go stale, and a view reads the same value every time. Invalidation is
// therefore evict-only: entries leave under LRU memory pressure, or when
// their epoch falls below the version store's pin floor (no live view can
// ever ask for them again; the version-gc demon drives that sweep).
//
// Cached values (term-count vectors, adjacency slices) are shared across
// views and goroutines and MUST be treated as immutable by every reader.

// cacheKind distinguishes the decoded-record families sharing the cache.
type cacheKind uint8

const (
	kindTF cacheKind = iota + 1
	kindOut
	kindIn
)

// cacheKey identifies one decoded record: the pinned epoch it was read
// at, the page, and which of the page's records it is.
type cacheKey struct {
	epoch uint64
	page  int64
	kind  cacheKind
}

// cacheEntry is an intrusive LRU node. val holds the decoded value
// (text.Vector or []int64 — possibly nil IDs or a typed nil, which caches
// "no record at this epoch" so repeated lookups of unknown pages skip the
// store too).
type cacheEntry struct {
	key        cacheKey
	val        any
	size       int64
	prev, next *cacheEntry
}

// CacheStats is the cache's observability surface, published through
// engine Stats and /api/status.
type CacheStats struct {
	// Hits and Misses count lookups: every read a view makes, repeat reads
	// within the view included, is one of the two.
	Hits   uint64
	Misses uint64
	// EvictedLRU counts entries dropped for memory pressure; EvictedFloor
	// counts entries dropped because their epoch fell below the pin
	// floor.
	EvictedLRU   uint64
	EvictedFloor uint64
	// SkippedOversize counts values refused admission because one entry
	// would have claimed more than its fair share of the budget (see
	// oversizeDivisor) — each is a whale record served uncached rather
	// than allowed to flush the working set.
	SkippedOversize uint64
	// Bytes/MaxBytes are the approximate decoded footprint and its bound;
	// Entries is the live entry count.
	Bytes    int64
	MaxBytes int64
	Entries  int
}

// recordCache is a size-bounded LRU of decoded derived records, shared
// by every DerivedView of one engine. All methods are safe for
// concurrent use.
type recordCache struct {
	hits   atomic.Uint64
	misses atomic.Uint64

	mu      sync.Mutex
	max     int64
	size    int64
	entries map[cacheKey]*cacheEntry
	// head/tail delimit the intrusive recency list: head.next is the most
	// recently used entry, tail.prev the eviction candidate.
	head, tail      cacheEntry
	evictedLRU      uint64
	evictedFloor    uint64
	skippedOversize uint64
}

// entryOverhead is the approximate per-entry bookkeeping cost charged on
// top of each value's own size (map slot, LRU node, key).
const entryOverhead = 96

// oversizeDivisor caps any single entry at max/oversizeDivisor bytes.
// Without the cap one giant decoded record — a hub page with tens of
// thousands of terms or in-links — evicts the entire hot working set on
// admission, trading thousands of future hits for one; such whales are
// served uncached instead (their decode cost is paid per pass, but the
// working set survives). oversizeFloor keeps entries below 64 KiB always
// admissible: at any budget where flushing is a real hazard they are
// harmless, and tiny (test-sized) budgets keep plain LRU semantics.
const (
	oversizeDivisor = 8
	oversizeFloor   = 64 << 10
)

// maxEntrySize returns the per-entry admission cap for budget max.
func maxEntrySize(max int64) int64 {
	if lim := max / oversizeDivisor; lim > oversizeFloor {
		return lim
	}
	return oversizeFloor
}

// newRecordCache builds a cache bounded at maxBytes of approximate
// decoded footprint.
func newRecordCache(maxBytes int64) *recordCache {
	c := &recordCache{max: maxBytes, entries: make(map[cacheKey]*cacheEntry)}
	c.head.next = &c.tail
	c.tail.prev = &c.head
	return c
}

func (c *recordCache) unlink(e *cacheEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (c *recordCache) pushFront(e *cacheEntry) {
	e.prev = &c.head
	e.next = c.head.next
	e.next.prev = e
	c.head.next = e
}

// get returns the cached decoded value for k. The second result
// distinguishes a miss from a cached typed nil ("no record at this
// epoch").
func (c *recordCache) get(k cacheKey) (any, bool) {
	c.mu.Lock()
	e, ok := c.entries[k]
	if ok {
		c.unlink(e)
		c.pushFront(e)
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return e.val, true
}

// put admits a freshly decoded value, evicting from the cold end until
// the size bound holds again. Values larger than max/oversizeDivisor are
// refused outright — admitting one would flush the whole working set for
// a single entry. A concurrent duplicate insert keeps the incumbent (the
// values are equal by construction — same immutable record, same
// decoder).
func (c *recordCache) put(k cacheKey, val any, size int64) {
	size += entryOverhead
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > maxEntrySize(c.max) {
		c.skippedOversize++
		return
	}
	if _, ok := c.entries[k]; ok {
		return
	}
	e := &cacheEntry{key: k, val: val, size: size}
	c.entries[k] = e
	c.pushFront(e)
	c.size += size
	for c.size > c.max && c.tail.prev != &c.head {
		victim := c.tail.prev
		c.unlink(victim)
		delete(c.entries, victim.key)
		c.size -= victim.size
		c.evictedLRU++
	}
}

// evictBelow drops every entry whose epoch is below floor — the version
// store's pin floor, below which no live or future view can pin. Driven
// by the engine's version-gc demon after each fold round.
func (c *recordCache) evictBelow(floor uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for e := c.head.next; e != &c.tail; {
		next := e.next
		if e.key.epoch < floor {
			c.unlink(e)
			delete(c.entries, e.key)
			c.size -= e.size
			c.evictedFloor++
			n++
		}
		e = next
	}
	return n
}

// stats returns a point-in-time snapshot of the counters.
func (c *recordCache) stats() CacheStats {
	st := CacheStats{
		Hits:   c.hits.Load(),
		Misses: c.misses.Load(),
	}
	c.mu.Lock()
	st.EvictedLRU = c.evictedLRU
	st.EvictedFloor = c.evictedFloor
	st.SkippedOversize = c.skippedOversize
	st.Bytes = c.size
	st.MaxBytes = c.max
	st.Entries = len(c.entries)
	c.mu.Unlock()
	return st
}

// --- approximate value sizing ---
//
// The bound is a decoded-footprint budget, not an exact accounting; the
// estimates below charge the dominant terms (slice backing arrays, map
// slots) the entry owns.

func sizeofIDs(ids []int64) int64 {
	return 24 + 8*int64(len(ids))
}

func sizeofVec(v text.Vector) int64 {
	return 48 + 12*int64(len(v.IDs))
}
