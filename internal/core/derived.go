package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"memex/internal/text"
	"memex/internal/version"
)

// This file is the engine's bridge to the version store (§3): the fetch
// path publishes each page's derived term counts as one batch, and the
// analyzer-facing read paths (usage breakdown, profiles, themes, trail
// classification) consume them through pinned snapshots. Demons therefore
// analyze a consistent archive-wide view — every page's stats
// all-or-nothing, repeatable across the whole pass — while ingest keeps
// publishing without ever blocking them.
//
// The derived records are the term-count record (tf/) and the adjacency
// records (lnk/, rin/ — see links.go); a page's term vector is a pure
// function of its counts and the engine dictionary, so DerivedView
// derives (and memoizes) vectors instead of storing a second blob. That
// also makes every persisted record process-portable — dict ids are
// assigned per process, so a stored vector blob would go stale across a
// restart, while term strings and page ids never do. On reopen the
// engine replays the recovered records through reloadDerived to rebuild
// the dictionary, inverted index (and with it N and DF) and link graph,
// and the fetch path skips every recovered page instead of re-crawling it.

// tfKey names a page's derived term-count record in the version store.
func tfKey(page int64) string { return "tf/" + strconv.FormatInt(page, 10) }

// pageOfTFKey is the inverse of tfKey (ok=false for foreign keys).
func pageOfTFKey(key string) (int64, bool) {
	if !strings.HasPrefix(key, "tf/") {
		return 0, false
	}
	id, err := strconv.ParseInt(key[3:], 10, 64)
	return id, err == nil
}

// reloadDerived rebuilds the in-memory text machinery — dictionary ids
// and the inverted index, whose map sizes are the collection's N and DF —
// the fetch claims, and the link-graph authority from the derived records
// the version store recovered from its cold tier, so a restarted server
// answers search/profile/theme/trail queries, resumes Discover's crawl
// frontier, and never re-crawls a page whose derived state survived.
// Recovered lnk/ records rebuild both adjacency directions (every reverse
// edge is the inversion of some out-edge, so rin/ records need no replay —
// they exist for pinned-view reads). An archive that still holds a rinD/
// in-link delta chunk — written while in-links were chunked, and read by
// nothing now — is refused: opening it would silently drop those edges from
// every In. A failed scan is an error too, never a partial index. Runs
// during Open, single-threaded, before any demon starts.
func (e *Engine) reloadDerived() error {
	var err error
	visit := func(key string, raw []byte) bool {
		if strings.HasPrefix(key, "rinD/") {
			err = fmt.Errorf("core: archive holds in-link delta chunk %q, a record format this version does not read; there is no migration", key)
			return false
		}
		if page, ok := pageOfLnkKey(key); ok {
			if outs, ok := decodeIDSet(raw); ok {
				e.links.applyRecovered(page, outs)
			}
			return true
		}
		page, ok := pageOfTFKey(key)
		if !ok {
			return true
		}
		// An undecodable record leaves the page unclaimed, so its next
		// visit re-fetches it and republishes over the bad blob.
		tf := decodeCounts(raw)
		if tf == nil {
			return true
		}
		e.idx.AddCounts(page, tf)
		rec := e.meta[page]
		rec.fetched = true
		e.meta[page] = rec
		return true
	}
	e.withView(func(view *DerivedView) {
		if scanErr := view.sn.Range(visit); scanErr != nil {
			err = scanErr
		}
	})
	return err
}

// derivedPublished reports whether the page's derived stats are (or are
// being) archived — the reader-facing "already fetched" check, answered
// from the page's claim flag alone: it covers every page this process
// fetched and every tf/ record reloadDerived could decode, so there is
// nothing further a store read could add. A caller that goes on to fetch
// must still let the claim arbitrate under the full lock.
func (e *Engine) derivedPublished(pageID int64) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.meta[pageID].fetched
}

// DerivedView is a consistent read view over the engine's published
// derived data, pinned at one version-store epoch for the duration of one
// withView call. Reads are lock-free and repeatable for the lifetime of
// the view: a page fetched after the view was pinned stays invisible to
// it (its TermCounts stay nil for the whole pass), exactly like a page
// that was never fetched.
//
// The view is also the pinned face of the link graph: Out, In and Has
// decode the page's adjacency records at the view's epoch — lnk/ for
// out-links, rin/ for in-links — satisfying graph.AdjacencySource, so
// trail ranking, link-proximity recommendation and crawl-frontier checks
// all read the same frozen graph their term-stat reads come from.
//
// Decoded records are memoized per view — a usage or replay pass reads
// the same few pages many times — so a DerivedView is for a single
// goroutine, like the passes that hold one.
//
// Between the per-view memo and the store sits the engine's shared
// decoded-record cache (cache.go), keyed by (epoch, page, kind): the
// second pass over an unchanged epoch — or a concurrent pass over the
// same one — reuses decoded values instead of re-walking chains and
// re-decoding blobs. Published epochs are immutable, so the cache is
// never invalidated in place, only evicted (LRU pressure, or the epoch
// falling below the pin floor). Everything that comes out of the memo
// or the cache is shared: callers must treat returned maps, slices and
// vectors as read-only.
type DerivedView struct {
	sn    *version.Snapshot
	dict  *text.Dict
	cache *recordCache // shared decoded-record cache; nil = uncached
	tf    map[int64]map[string]int
	vec   map[int64]text.Vector
	out   map[int64][]int64
	in    map[int64][]int64
}

// withView runs fn over the derived data pinned at the current epoch and
// unpins when fn returns or panics. It is the only way to obtain a view, so
// a pin cannot leak; fn must not let the view outlive the call (no field,
// channel or goroutine hand-off) — a view used after its scope panics.
func (e *Engine) withView(fn func(*DerivedView)) {
	sn := e.vs.Acquire()
	v := &DerivedView{
		sn:    sn,
		dict:  e.dict,
		cache: e.cache,
		tf:    map[int64]map[string]int{},
		vec:   map[int64]text.Vector{},
		out:   map[int64][]int64{},
		in:    map[int64][]int64{},
	}
	defer func() {
		v.sn = nil
		sn.Release()
	}()
	fn(v)
}

// pinned returns the view's snapshot, or panics once the pin's scope has
// ended. Every accessor starts here, before its memo and the shared cache:
// both could otherwise keep answering from an epoch the store is free to
// fold away.
func (v *DerivedView) pinned() *version.Snapshot {
	if v.sn == nil {
		panic("core: DerivedView used after its withView scope ended")
	}
	return v.sn
}

// Epoch returns the pinned version-store epoch.
func (v *DerivedView) Epoch() uint64 { return v.pinned().Epoch() }

// TermCounts returns the page's term counts as of the view's epoch (nil
// when the page had no fetched text as of the pin). The result is shared
// through the record cache: treat it as read-only.
func (v *DerivedView) TermCounts(page int64) map[string]int {
	sn := v.pinned()
	if tf, ok := v.tf[page]; ok {
		return tf
	}
	ck := cacheKey{epoch: sn.Epoch(), page: page, kind: kindTF}
	if v.cache != nil {
		if val, ok := v.cache.get(ck); ok {
			tf := val.(map[string]int)
			v.tf[page] = tf
			return tf
		}
	}
	var tf map[string]int
	if raw, ok := sn.Get(tfKey(page)); ok {
		tf = decodeCounts(raw)
	}
	v.tf[page] = tf
	if v.cache != nil {
		v.cache.put(ck, tf, sizeofCounts(tf))
	}
	return tf
}

// adj decodes one adjacency record through a memo map and the shared
// cache. Memo and cache both store nil for "no record at this epoch" and
// a non-nil (possibly empty) slice for a known page, mirroring
// decodeIDSet's contract.
func (v *DerivedView) adj(memo map[int64][]int64, kind cacheKind, key string, page int64) []int64 {
	sn := v.pinned()
	if ids, ok := memo[page]; ok {
		return ids
	}
	ck := cacheKey{epoch: sn.Epoch(), page: page, kind: kind}
	if v.cache != nil {
		if val, ok := v.cache.get(ck); ok {
			ids := val.([]int64)
			memo[page] = ids
			return ids
		}
	}
	var ids []int64
	if raw, ok := sn.Get(key); ok {
		if dec, ok := decodeIDSet(raw); ok {
			ids = dec
		}
	}
	memo[page] = ids
	if v.cache != nil {
		v.cache.put(ck, ids, sizeofIDs(ids))
	}
	return ids
}

// Out returns the page's out-link adjacency as of the view's epoch (nil
// when the page has no lnk/ record; callers must not mutate the slice).
// Out implements part of graph.AdjacencySource.
func (v *DerivedView) Out(page int64) []int64 {
	return v.adj(v.out, kindOut, lnkKey(page), page)
}

// OutKnown is Out plus whether the page has an adjacency record at all —
// distinguishing "archived with zero out-links" from "unknown page".
func (v *DerivedView) OutKnown(page int64) ([]int64, bool) {
	ids := v.Out(page)
	return ids, ids != nil
}

// In returns the page's in-link adjacency as of the view's epoch (nil
// when the page has no decodable rin/ record; callers must not mutate the
// slice). In implements part of graph.AdjacencySource.
func (v *DerivedView) In(page int64) []int64 {
	return v.adj(v.in, kindIn, rinKey(page), page)
}

// Has reports whether the page is known to the link graph at the view's
// epoch: it has published out-links (even an empty set) or something
// links to it. Has implements part of graph.AdjacencySource.
func (v *DerivedView) Has(page int64) bool {
	return v.Out(page) != nil || v.In(page) != nil
}

// Vector returns the page's raw term vector as of the view's epoch,
// derived from the term-count record (weights are the counts, ids come
// from the shared dictionary — identical to what the fetch path computed,
// and valid across restarts because the record stores terms, not ids).
func (v *DerivedView) Vector(page int64) (text.Vector, bool) {
	sn := v.pinned()
	if vec, ok := v.vec[page]; ok {
		return vec, len(vec.IDs) > 0
	}
	ck := cacheKey{epoch: sn.Epoch(), page: page, kind: kindVec}
	if v.cache != nil {
		if val, ok := v.cache.get(ck); ok {
			vec := val.(text.Vector)
			v.vec[page] = vec
			return vec, len(vec.IDs) > 0
		}
	}
	var vec text.Vector
	if tf := v.TermCounts(page); tf != nil {
		vec = text.VectorFromCounts(v.dict, tf)
	}
	v.vec[page] = vec
	if v.cache != nil {
		v.cache.put(ck, vec, sizeofVec(vec))
	}
	return vec, len(vec.IDs) > 0
}

// --- codec ---
//
// Derived records are stored as compact binary blobs: uvarint-framed
// term strings with counts. No reflection, no allocation beyond the
// result, and nothing process-local — the blob must stay decodable by a
// future process reading it back from the cold tier.

// encodeCounts serializes term counts as uvarint(n) then per term
// uvarint(len), bytes, uvarint(count) — terms in sorted order, so equal
// count maps always encode to byte-identical blobs. Map-order iteration
// here would break the record-level determinism the restart tests pin
// (two lives encoding the same counts must produce the same bytes) and
// churn the cold tier with spurious rewrites of unchanged records.
func encodeCounts(tf map[string]int) []byte {
	terms := make([]string, 0, len(tf))
	size := binary.MaxVarintLen64
	for term := range tf {
		terms = append(terms, term)
		size += len(term) + 2*binary.MaxVarintLen64
	}
	sort.Strings(terms)
	buf := make([]byte, 0, size)
	buf = binary.AppendUvarint(buf, uint64(len(tf)))
	for _, term := range terms {
		buf = binary.AppendUvarint(buf, uint64(len(term)))
		buf = append(buf, term...)
		buf = binary.AppendUvarint(buf, uint64(tf[term]))
	}
	return buf
}

// decodeCounts is the inverse of encodeCounts (nil on corrupt input).
func decodeCounts(b []byte) map[string]int {
	n, w := binary.Uvarint(b)
	if w <= 0 {
		return nil
	}
	b = b[w:]
	// Every term entry costs at least two bytes (length uvarint + count
	// uvarint), so a count exceeding the payload is corruption — reject
	// it before sizing the map, the same bound decodeIDSet enforces. A
	// corrupt cold-tier record could otherwise demand a ~2^60-entry
	// allocation and OOM the process instead of degrading to "unknown".
	if n > uint64(len(b)) {
		return nil
	}
	tf := make(map[string]int, n)
	for i := uint64(0); i < n; i++ {
		l, w := binary.Uvarint(b)
		if w <= 0 || uint64(len(b)-w) < l {
			return nil
		}
		term := string(b[w : w+int(l)])
		b = b[w+int(l):]
		c, w := binary.Uvarint(b)
		if w <= 0 {
			return nil
		}
		b = b[w:]
		tf[term] = int(c)
	}
	return tf
}
