package core

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"memex/internal/events"
	"memex/internal/text"
	"memex/internal/version"
	"memex/internal/webcorpus"
)

// twin is the ground-truth read path: every read decodes its record
// straight from the pinned snapshot, with no cache in between.
type twin struct {
	sn   *version.Snapshot
	dict *text.Dict
}

// uncachedTwin reads v's pinned snapshot through no cache. Only v's own
// withView may Release the snapshot.
func uncachedTwin(v *DerivedView) twin { return twin{v.sn, v.dict} }

func (t twin) TermCounts(page int64) text.Vector {
	raw, ok := t.sn.Get(tfKey(page))
	if !ok {
		return text.Vector{}
	}
	return countsOf(t.dict, raw)
}

func (t twin) ids(key string) []int64 {
	raw, ok := t.sn.Get(key)
	if !ok {
		return nil
	}
	ids, ok := decodeIDSet(raw)
	if !ok {
		return nil
	}
	return ids
}

func (t twin) Out(page int64) []int64 { return t.ids(lnkKey(page)) }
func (t twin) In(page int64) []int64  { return t.ids(rinKey(page)) }

// fetchedPages snapshots the engine's claim set (the pages with derived
// records to read).
func fetchedPages(e *Engine) []int64 {
	e.mu.RLock()
	var pages []int64
	for p, rec := range e.meta {
		if rec.fetched {
			pages = append(pages, p)
		}
	}
	e.mu.RUnlock()
	slices.Sort(pages)
	return pages
}

func seedEngine(t testing.TB, e *Engine, c *webcorpus.Corpus, visits int) {
	t.Helper()
	e.RegisterUser(1, "alice")
	n := 0
	for _, leaf := range c.Leaves() {
		for _, pid := range c.LeafPages[leaf.ID] {
			if n >= visits {
				break
			}
			p := c.Page(pid)
			if err := e.RecordVisit(1, p.URL, "", tBase.Add(time.Duration(n)*time.Minute), events.Community); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	e.DrainBackground()
}

// TestCachedReadsMatchUncached pins one snapshot and reads every derived
// record through three paths — the shared cache cold (first view), the
// ground-truth uncached twin, and the cache warm (second view
// at the same epoch) — and requires identical results from all three.
func TestCachedReadsMatchUncached(t *testing.T) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 11, TopTopics: 3, SubPerTopic: 2, PagesPerLeaf: 12})
	e, err := Open(Config{
		Dir:        t.TempDir(),
		Source:     corpusSource{c},
		GCInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	seedEngine(t, e, c, 20)

	e.withView(func(v *DerivedView) {
		truth := uncachedTwin(v)
		warm := &DerivedView{v.sn, v.dict, v.cache}
		pages := fetchedPages(e)
		if len(pages) == 0 {
			t.Fatal("no fetched pages")
		}
		for _, view := range []*DerivedView{v, warm} {
			for _, p := range pages {
				if got, want := view.TermCounts(p), truth.TermCounts(p); !reflect.DeepEqual(got, want) {
					t.Fatalf("page %d: cached TermCounts = %v, want %v", p, got, want)
				}
				if got, want := view.Out(p), truth.Out(p); !slices.Equal(got, want) {
					t.Fatalf("page %d: cached Out = %v, want %v", p, got, want)
				}
				if got, want := view.In(p), truth.In(p); !slices.Equal(got, want) {
					t.Fatalf("page %d: cached In = %v, want %v", p, got, want)
				}
			}
		}
		st := e.cache.stats()
		if st.Hits == 0 || st.Misses == 0 {
			t.Fatalf("cache accounting dead: %+v", st)
		}
	})
}

// TestSecondPassDecodeCollapse is the tentpole's headline property as a
// counter assertion: a second full read pass over an unchanged epoch
// must do at least 5× less decode work (cache misses are decodes; the
// second pass should be nearly all hits).
func TestSecondPassDecodeCollapse(t *testing.T) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 12, TopTopics: 3, SubPerTopic: 2, PagesPerLeaf: 12})
	e, err := Open(Config{
		Dir:        t.TempDir(),
		Source:     corpusSource{c},
		GCInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	seedEngine(t, e, c, 24)

	pages := fetchedPages(e)
	pass := func() {
		e.withView(func(v *DerivedView) {
			for _, p := range pages {
				v.TermCounts(p)
				v.Out(p)
				v.In(p)
			}
		})
	}
	m0 := e.cache.stats().Misses
	pass()
	m1 := e.cache.stats().Misses
	pass()
	m2 := e.cache.stats().Misses
	cold, warmMisses := m1-m0, m2-m1
	if cold == 0 {
		t.Fatal("first pass decoded nothing")
	}
	if warmMisses*5 > cold {
		t.Fatalf("second pass did %d decodes vs %d cold — less than the 5× collapse", warmMisses, cold)
	}
}

// TestConsolidatedInZeroColdFallthrough: a page's in-links are one record,
// so after a full fold to the cold tier In() on a page that has some costs
// exactly one cold read and never a miss.
func TestConsolidatedInZeroColdFallthrough(t *testing.T) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 13, TopTopics: 3, SubPerTopic: 2, PagesPerLeaf: 12})
	e, err := Open(Config{
		Dir:        t.TempDir(),
		Source:     corpusSource{c},
		GCInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	seedEngine(t, e, c, 20)

	var linked []int64
	e.withView(func(pre *DerivedView) {
		for _, p := range fetchedPages(e) {
			if pre.In(p) != nil {
				linked = append(linked, p)
			}
		}
	})
	if len(linked) == 0 {
		t.Fatal("no pages with in-links")
	}

	// Fold everything to the cold tier so every read that misses the
	// in-memory chains falls through to disk.
	if _, err := e.vs.Fold(); err != nil {
		t.Fatal(err)
	}

	coldStats := func() (reads, misses uint64) {
		cs := e.vs.StoreStats().Cold
		return cs.Reads, cs.ReadMisses
	}
	e.withView(func(v *DerivedView) {
		// The uncached twin, so every In() reaches the store.
		truth := uncachedTwin(v)
		reads0, miss0 := coldStats()
		for _, p := range linked {
			if truth.In(p) == nil {
				t.Fatalf("page %d lost its in-links in the fold", p)
			}
		}
		reads1, miss1 := coldStats()
		if got := reads1 - reads0; got != uint64(len(linked)) {
			t.Fatalf("In() over %d folded pages cost %d cold reads, want one each", len(linked), got)
		}
		if miss1 != miss0 {
			t.Fatalf("In() paid %d cold-tier misses, want 0", miss1-miss0)
		}
	})
}

// TestOversizeRecordDecodesOnEveryRead: a record larger than the cache's
// admission cap is refused every time, so each read through one view
// decodes it from the pinned snapshot again — and each read still equals
// the uncached twin's.
func TestOversizeRecordDecodesOnEveryRead(t *testing.T) {
	const terms = 6000
	vs := newTestStore(t)
	d := text.NewDict()
	counts := make(map[string]int, terms)
	for i := 0; i < terms; i++ {
		counts[fmt.Sprintf("term%05d", i)] = i%7 + 1
	}
	blob, _ := encodeTF("", text.VectorFromCounts(d, counts))
	b := vs.BeginSized(1)
	b.Put(tfKey(1), blob)
	if err := b.Publish(); err != nil {
		t.Fatal(err)
	}
	sn := vs.Acquire()
	defer sn.Release()

	const budget = 256 << 10 // a test-sized budget: its cap is the 64 KiB floor
	v := &DerivedView{sn, d, newRecordCache(budget)}
	want := uncachedTwin(v).TermCounts(1)
	if len(want.IDs) != terms {
		t.Fatalf("twin decoded %d terms, want %d", len(want.IDs), terms)
	}
	if size := sizeofVec(want) + entryOverhead; size <= maxEntrySize(budget) {
		t.Fatalf("test setup: a %d-byte entry fits the %d-byte admission cap", size, maxEntrySize(budget))
	}
	for read := 1; read <= 2; read++ {
		if got := v.TermCounts(1); !reflect.DeepEqual(got, want) {
			t.Fatalf("read %d: TermCounts differs from the uncached twin", read)
		}
	}
	if got := v.cache.stats().SkippedOversize; got != 2 {
		t.Fatalf("SkippedOversize = %d after two reads, want 2", got)
	}
}

// TestCacheEvictionRespectsPinFloor drives the evict-only invalidation
// contract: entries at a pinned epoch survive a floor sweep (the pin
// floor cannot pass a live pin), keep serving the pinned view, and are
// reclaimed only once the pin is gone and the floor moves past them.
func TestCacheEvictionRespectsPinFloor(t *testing.T) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 14, TopTopics: 3, SubPerTopic: 2, PagesPerLeaf: 12})
	e, err := Open(Config{
		Dir:        t.TempDir(),
		Source:     corpusSource{c},
		GCInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	seedEngine(t, e, c, 12)

	pages := fetchedPages(e)
	var epoch uint64
	e.withView(func(v *DerivedView) {
		want := map[int64][]int64{}
		for _, p := range pages {
			want[p] = slices.Clone(v.In(p))
		}
		epoch = v.sn.Epoch()

		// Publish past the pinned epoch, then sweep at the pin floor: the
		// pinned epoch's entries must survive (floor ≤ pinned epoch).
		seedEngine(t, e, c, 24)
		e.cache.evictBelow(e.vs.PinFloor())
		h0 := e.cache.stats().Hits
		warm := &DerivedView{v.sn, v.dict, v.cache}
		for _, p := range pages {
			if got := warm.In(p); !slices.Equal(got, want[p]) {
				t.Fatalf("page %d: post-sweep cached In = %v, want %v", p, got, want[p])
			}
		}
		if h1 := e.cache.stats().Hits; h1 == h0 {
			t.Fatal("pinned epoch's entries were swept below the pin floor")
		}
	})
	// The pin is gone; the floor moves past the epoch and the sweep may
	// now reclaim it.
	if floor := e.vs.PinFloor(); floor <= epoch {
		t.Fatalf("pin floor %d did not pass released epoch %d", floor, epoch)
	}
	ef0 := e.cache.stats().EvictedFloor
	e.cache.evictBelow(e.vs.PinFloor())
	if ef1 := e.cache.stats().EvictedFloor; ef1 == ef0 {
		t.Fatal("sweep reclaimed nothing after the pin released")
	}
	if _, ok := e.cache.get(cacheKey{epoch: epoch, page: pages[0], kind: kindIn}); ok {
		t.Fatal("released epoch's entry survived the floor sweep")
	}
}

// TestDerivedCacheConcurrentMiningAndIngest is the -race exercise: theme
// rebuilds, recommendation and raw cached read passes run against live
// ingest, the GC/fold demon and explicit pin-floor cache
// sweeps, with every cached read checked against the uncached
// ground-truth twin on the same pinned snapshot.
func TestDerivedCacheConcurrentMiningAndIngest(t *testing.T) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 15, TopTopics: 3, SubPerTopic: 2, PagesPerLeaf: 16})
	e, err := Open(Config{
		Dir:        t.TempDir(),
		Source:     corpusSource{c},
		GCInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	seedEngine(t, e, c, 16)

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Ingest: keep publishing new epochs under the readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := 16
		for _, leaf := range c.Leaves() {
			for _, pid := range c.LeafPages[leaf.ID] {
				select {
				case <-stop:
					return
				default:
				}
				p := c.Page(pid)
				if err := e.RecordVisit(1, p.URL, "", tBase.Add(time.Duration(n)*time.Minute), events.Community); err != nil {
					t.Errorf("RecordVisit: %v", err)
					return
				}
				n++
			}
		}
	}()

	// Sweeper: race the pin-floor eviction against the readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.cache.evictBelow(e.vs.PinFloor())
				time.Sleep(time.Millisecond)
			}
		}
	}()

	// Readers: cached view vs ground-truth twin on one pinned snapshot,
	// plus within-view repeatability.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e.withView(func(v *DerivedView) {
					truth := uncachedTwin(v)
					pages := fetchedPages(e)
					if len(pages) > 24 {
						pages = pages[:24]
					}
					for _, p := range pages {
						if got, want := v.In(p), truth.In(p); !slices.Equal(got, want) {
							t.Errorf("page %d: cached In %v != uncached %v at epoch %d", p, got, want, v.sn.Epoch())
						}
						if got, want := v.TermCounts(p), truth.TermCounts(p); !reflect.DeepEqual(got, want) {
							t.Errorf("page %d: cached TermCounts diverged at epoch %d", p, v.sn.Epoch())
						}
						if first, again := v.Out(p), v.Out(p); !slices.Equal(first, again) {
							t.Errorf("page %d: Out not repeatable within one view", p)
						}
					}
				})
			}
		}()
	}

	// Miners: the real read passes the cache exists for.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.RebuildThemes()
				e.Recommend(1, 5, true)
			}
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}
