package core

import (
	"strings"
	"testing"
	"unsafe"

	"memex/internal/text"
)

func ck(epoch uint64, page int64) cacheKey {
	return cacheKey{epoch: epoch, page: page, kind: kindIn}
}

func TestRecordCacheHitMissAccounting(t *testing.T) {
	c := newRecordCache(1 << 20)
	if _, ok := c.get(ck(1, 1)); ok {
		t.Fatal("hit on empty cache")
	}
	c.put(ck(1, 1), []int64{7}, 8)
	if v, ok := c.get(ck(1, 1)); !ok {
		t.Fatal("miss after put")
	} else if ids := v.([]int64); len(ids) != 1 || ids[0] != 7 {
		t.Fatalf("cached value = %v", ids)
	}
	// Different epoch, page or kind each miss independently.
	if _, ok := c.get(ck(2, 1)); ok {
		t.Fatal("epoch leaked across keys")
	}
	if _, ok := c.get(ck(1, 2)); ok {
		t.Fatal("page leaked across keys")
	}
	if _, ok := c.get(cacheKey{epoch: 1, page: 1, kind: kindOut}); ok {
		t.Fatal("kind leaked across keys")
	}
	st := c.stats()
	if st.Hits != 1 || st.Misses != 4 {
		t.Fatalf("hits/misses = %d/%d, want 1/4", st.Hits, st.Misses)
	}
	if st.Entries != 1 || st.Bytes != 8+entryOverhead || st.MaxBytes != 1<<20 {
		t.Fatalf("entries/bytes/max = %d/%d/%d", st.Entries, st.Bytes, st.MaxBytes)
	}
}

func TestRecordCacheNegativeCaching(t *testing.T) {
	c := newRecordCache(1 << 20)
	// A typed nil ("no record at this epoch") is a cacheable value: the
	// second lookup of an unknown page must hit, not fall through.
	var none []int64
	c.put(ck(3, 9), none, 0)
	v, ok := c.get(ck(3, 9))
	if !ok {
		t.Fatal("cached negative entry missed")
	}
	if ids := v.([]int64); ids != nil {
		t.Fatalf("negative entry = %v, want nil", ids)
	}
}

func TestRecordCacheLRUEviction(t *testing.T) {
	// Room for exactly two entries of size 4+entryOverhead.
	c := newRecordCache(2 * (4 + entryOverhead))
	c.put(ck(1, 1), []int64{1}, 4)
	c.put(ck(1, 2), []int64{2}, 4)
	// Touch page 1 so page 2 is the cold end.
	if _, ok := c.get(ck(1, 1)); !ok {
		t.Fatal("warm entry missing")
	}
	c.put(ck(1, 3), []int64{3}, 4)
	if _, ok := c.get(ck(1, 2)); ok {
		t.Fatal("cold entry survived over-budget insert")
	}
	if _, ok := c.get(ck(1, 1)); !ok {
		t.Fatal("recently-used entry evicted before cold one")
	}
	if _, ok := c.get(ck(1, 3)); !ok {
		t.Fatal("newest entry evicted")
	}
	st := c.stats()
	if st.EvictedLRU != 1 || st.EvictedFloor != 0 {
		t.Fatalf("evictions = %d LRU / %d floor, want 1/0", st.EvictedLRU, st.EvictedFloor)
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("size %d exceeds bound %d", st.Bytes, st.MaxBytes)
	}
}

func TestRecordCacheDuplicatePutKeepsIncumbent(t *testing.T) {
	c := newRecordCache(1 << 20)
	first := []int64{1, 2}
	c.put(ck(1, 1), first, 16)
	c.put(ck(1, 1), []int64{1, 2}, 16)
	v, _ := c.get(ck(1, 1))
	if &v.([]int64)[0] != &first[0] {
		t.Fatal("duplicate put replaced the incumbent value")
	}
	if st := c.stats(); st.Entries != 1 || st.Bytes != 16+entryOverhead {
		t.Fatalf("duplicate put double-charged: %d entries, %d bytes", st.Entries, st.Bytes)
	}
}

func TestRecordCacheEvictBelowFloor(t *testing.T) {
	c := newRecordCache(1 << 20)
	for epoch := uint64(1); epoch <= 5; epoch++ {
		c.put(ck(epoch, int64(epoch)), []int64{int64(epoch)}, 8)
	}
	if n := c.evictBelow(4); n != 3 {
		t.Fatalf("evictBelow dropped %d entries, want 3", n)
	}
	for epoch := uint64(1); epoch <= 3; epoch++ {
		if _, ok := c.get(ck(epoch, int64(epoch))); ok {
			t.Fatalf("epoch %d survived below the pin floor", epoch)
		}
	}
	for epoch := uint64(4); epoch <= 5; epoch++ {
		if _, ok := c.get(ck(epoch, int64(epoch))); !ok {
			t.Fatalf("epoch %d at/above the floor was dropped", epoch)
		}
	}
	st := c.stats()
	if st.EvictedFloor != 3 || st.EvictedLRU != 0 {
		t.Fatalf("evictions = %d floor / %d LRU, want 3/0", st.EvictedFloor, st.EvictedLRU)
	}
	if st.Entries != 2 || st.Bytes != 2*(8+entryOverhead) {
		t.Fatalf("post-evict entries/bytes = %d/%d", st.Entries, st.Bytes)
	}
}

// TestRecordCacheWhaleBypassesAdmission is the giant-single-record
// regression test: before the per-entry size cap, one huge decoded hub
// page was admitted by evicting the entire working set behind it. The
// whale must bounce off the cache and leave the hot entries untouched.
func TestRecordCacheWhaleBypassesAdmission(t *testing.T) {
	const max = 1 << 20 // 1 MiB budget → per-entry cap is oversizeFloor (64 KiB)
	c := newRecordCache(max)
	for page := int64(1); page <= 10; page++ {
		c.put(ck(1, page), []int64{page}, 64)
	}
	// A whale bigger than the per-entry cap but smaller than the whole
	// budget: plain LRU admission would have flushed most of the working
	// set to fit it.
	c.put(ck(1, 999), make([]int64, 1<<15), 512<<10)
	if _, ok := c.get(ck(1, 999)); ok {
		t.Fatal("whale record was admitted to the cache")
	}
	for page := int64(1); page <= 10; page++ {
		if _, ok := c.get(ck(1, page)); !ok {
			t.Fatalf("working-set entry %d flushed by whale admission", page)
		}
	}
	st := c.stats()
	if st.SkippedOversize != 1 {
		t.Fatalf("SkippedOversize = %d, want 1", st.SkippedOversize)
	}
	if st.EvictedLRU != 0 {
		t.Fatalf("whale caused %d LRU evictions, want 0", st.EvictedLRU)
	}
	if st.Entries != 10 {
		t.Fatalf("entries = %d, want 10", st.Entries)
	}
}

func TestRecordCacheMaxEntrySize(t *testing.T) {
	cases := []struct {
		max, want int64
	}{
		{256 << 10, oversizeFloor},         // small budget: floor wins (max/8 = 32 KiB)
		{32 << 20, (32 << 20) / 8},         // default budget: max/8 = 4 MiB
		{8 * oversizeFloor, oversizeFloor}, // boundary: exactly the floor
	}
	for _, tc := range cases {
		if got := maxEntrySize(tc.max); got != tc.want {
			t.Errorf("maxEntrySize(%d) = %d, want %d", tc.max, got, tc.want)
		}
	}
}

func TestRecordCacheDisabled(t *testing.T) {
	if c := newRecordCache(0); c != nil {
		t.Fatal("zero budget built a cache (caller defaults, not the cache)")
	}
	if c := newRecordCache(-1); c != nil {
		t.Fatal("negative budget built a cache")
	}
}

// TestCountsChargeSlotsNotTerms: a decoded term-count map's keys are the
// dictionary's own strings, so its cache charge counts map slots only —
// the same for long terms as for short ones — and the budget does not pay
// again for bytes the dictionary already holds.
func TestCountsChargeSlotsNotTerms(t *testing.T) {
	d := text.NewDict()
	long := strings.Repeat("x", 500)
	blob, _ := encodeCounts(d, map[string]int{long: 2, "y": 1})
	tf := decodeCounts(d, blob)
	for term := range tf {
		id, _ := d.Lookup(term)
		if unsafe.StringData(term) != unsafe.StringData(d.Terms()[id]) {
			t.Fatalf("decoded key %.10q… is a copy, not the dictionary's string", term)
		}
	}
	if got, short := sizeofCounts(tf), sizeofCounts(map[string]int{"a": 2, "b": 1}); got != short || got >= int64(len(long)) {
		t.Fatalf("a map of two terms is charged %d B with a 500-byte term and %d B without; want the same slot charge", got, short)
	}
}
