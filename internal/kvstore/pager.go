package kvstore

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// Pager manages the page file and an LRU buffer pool. Page 0 is the meta
// page; tree pages start at 1. Pages are never freed: the file only grows.
type Pager struct {
	mu       sync.Mutex
	f        *os.File
	npages   pageID // pages allocated (including meta)
	cache    map[pageID]*lruEntry
	lru      *lruEntry // most-recently used; doubly-linked ring sentinel
	capacity int

	// stats
	hits, misses, evictions uint64
}

type lruEntry struct {
	p          *page
	prev, next *lruEntry
	pinned     int
}

// DefaultCacheSize is the default number of pages held in the buffer pool
// (4096 pages = 16 MiB).
const DefaultCacheSize = 4096

var errValueTooLarge = errors.New("kvstore: key+value exceeds page capacity")

// ErrTooLarge reports whether err indicates an oversized key/value pair.
func ErrTooLarge(err error) bool { return errors.Is(err, errValueTooLarge) }

func newPager(path string, cacheSize int) (*Pager, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: open page file: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if cacheSize <= 8 {
		cacheSize = 8
	}
	sentinel := &lruEntry{}
	sentinel.prev, sentinel.next = sentinel, sentinel
	pg := &Pager{
		f:        f,
		npages:   pageID(st.Size() / PageSize),
		cache:    make(map[pageID]*lruEntry, cacheSize),
		lru:      sentinel,
		capacity: cacheSize,
	}
	if pg.npages == 0 {
		// Fresh file: materialise the meta page.
		meta, err := pg.allocate(pageMeta)
		if err != nil {
			f.Close()
			return nil, err
		}
		pg.unpin(meta)
	}
	return pg, nil
}

// allocate returns a pinned, zeroed page of the given kind at the end of
// the file.
func (pg *Pager) allocate(kind byte) (*page, error) {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	p := &page{}
	p.init(pg.npages, kind)
	p.dirty = true
	if err := pg.insertLocked(p, true); err != nil {
		return nil, err
	}
	pg.npages++
	return p, nil
}

// get returns a pinned page. Callers must unpin.
func (pg *Pager) get(id pageID) (*page, error) {
	pg.mu.Lock()
	if e, ok := pg.cache[id]; ok {
		pg.hits++
		e.pinned++
		pg.moveFront(e)
		pg.mu.Unlock()
		return e.p, nil
	}
	pg.misses++
	pg.mu.Unlock()

	p := &page{}
	if _, err := pg.f.ReadAt(p.buf[:], int64(id)*PageSize); err != nil {
		return nil, fmt.Errorf("kvstore: read page %d: %w", id, err)
	}
	p.id = id
	p.kind = p.buf[0]

	pg.mu.Lock()
	defer pg.mu.Unlock()
	if e, ok := pg.cache[id]; ok { // raced: another reader loaded it
		e.pinned++
		pg.moveFront(e)
		return e.p, nil
	}
	if err := pg.insertLocked(p, true); err != nil {
		return nil, err
	}
	return p, nil
}

func (pg *Pager) unpin(p *page) {
	pg.mu.Lock()
	if e, ok := pg.cache[p.id]; ok && e.pinned > 0 {
		e.pinned--
	}
	pg.mu.Unlock()
}

// insertLocked adds a page to the cache, evicting if needed. Lock held.
func (pg *Pager) insertLocked(p *page, pin bool) error {
	for len(pg.cache) >= pg.capacity {
		victim := pg.lru.prev
		for victim != pg.lru && victim.pinned > 0 {
			victim = victim.prev
		}
		if victim == pg.lru {
			break // everything pinned; allow overflow rather than deadlock
		}
		if victim.p.dirty {
			if err := pg.writePageLocked(victim.p); err != nil {
				return err
			}
		}
		pg.evictions++
		pg.detach(victim)
		delete(pg.cache, victim.p.id)
	}
	e := &lruEntry{p: p}
	if pin {
		e.pinned = 1
	}
	pg.cache[p.id] = e
	pg.attachFront(e)
	return nil
}

func (pg *Pager) detach(e *lruEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (pg *Pager) attachFront(e *lruEntry) {
	e.next = pg.lru.next
	e.prev = pg.lru
	pg.lru.next.prev = e
	pg.lru.next = e
}

func (pg *Pager) moveFront(e *lruEntry) {
	pg.detach(e)
	pg.attachFront(e)
}

func (pg *Pager) writePageLocked(p *page) error {
	if _, err := pg.f.WriteAt(p.buf[:], int64(p.id)*PageSize); err != nil {
		return fmt.Errorf("kvstore: write page %d: %w", p.id, err)
	}
	p.dirty = false
	return nil
}

// flush writes all dirty pages and syncs the file.
func (pg *Pager) flush() error {
	pg.mu.Lock()
	for _, e := range pg.cache {
		if e.p.dirty {
			if err := pg.writePageLocked(e.p); err != nil {
				pg.mu.Unlock()
				return err
			}
		}
	}
	pg.mu.Unlock()
	return pg.f.Sync()
}

func (pg *Pager) close() error {
	if err := pg.flush(); err != nil {
		pg.f.Close()
		return err
	}
	return pg.f.Close()
}

// Stats reports buffer-pool effectiveness counters and how much the store
// has written since it was opened.
type Stats struct {
	Pages     int
	CacheSize int
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Commits counts WAL commits — one per Put, Delete or batch, each a
	// turn under the write lock and (SyncGroup) a flush to the OS.
	// WALBytes counts the log bytes appended, commit records included.
	// Both only grow; a checkpoint truncates the file, not the counters.
	Commits  uint64
	WALBytes uint64
	// LeafSplits counts full leaves that took a new page; LeafRebalances
	// those that shed cells into a sibling instead. Counts of work done
	// under the write lock, this life only.
	LeafSplits     uint64
	LeafRebalances uint64
}

func (pg *Pager) stats() Stats {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	return Stats{
		Pages:     int(pg.npages),
		CacheSize: len(pg.cache),
		Hits:      pg.hits,
		Misses:    pg.misses,
		Evictions: pg.evictions,
	}
}
