package core

import (
	"encoding/binary"
	"fmt"
	"slices"
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
// The derived records are the term-count record (tf/), which names its
// terms by dictionary id, the dictionary records (dict/, one per term,
// published with the first page that names the id — see links.go) and the
// adjacency records (lnk/, rin/). A page's term vector is a pure function
// of its counts and the dictionary, so DerivedView derives (and memoizes)
// vectors instead of storing a second blob. On reopen reloadDerived
// restores the dictionary with every term at its old id, then replays the
// recovered records to rebuild the inverted index (and with it N and DF)
// and the link graph, and the fetch path skips every recovered page
// instead of re-crawling it.

// tfKey names a page's derived term-count record in the version store.
func tfKey(page int64) string { return "tf/" + strconv.FormatInt(page, 10) }

// dictKey names a term's dictionary record: its value is the term.
func dictKey(id int32) string { return "dict/" + strconv.FormatInt(int64(id), 10) }

// idOfDictKey is the inverse of dictKey (ok=false for foreign keys).
func idOfDictKey(key string) (int32, bool) {
	if !strings.HasPrefix(key, "dict/") {
		return 0, false
	}
	id, err := strconv.ParseInt(key[5:], 10, 32)
	return int32(id), err == nil && id >= 0
}

// pageOfTFKey is the inverse of tfKey (ok=false for foreign keys).
func pageOfTFKey(key string) (int64, bool) {
	if !strings.HasPrefix(key, "tf/") {
		return 0, false
	}
	id, err := strconv.ParseInt(key[3:], 10, 64)
	return id, err == nil
}

// tfRecord is a recovered tf/ record held until the dictionary it names
// is restored.
type tfRecord struct {
	page int64
	raw  []byte
}

// reloadDerived rebuilds the in-memory text machinery — the dictionary
// and the inverted index, whose map sizes are the collection's N and DF —
// the fetch claims, and the link-graph authority from the derived records
// the version store recovered from its cold tier, so a restarted server
// answers search/profile/theme/trail queries, resumes Discover's crawl
// frontier, and never re-crawls a page whose derived state survived.
// Recovered lnk/ records rebuild both adjacency directions (every reverse
// edge is the inversion of some out-edge, so rin/ records need no replay —
// they exist for pinned-view reads). Records arrive in key order, not id
// order (dict/10 sorts before dict/9), and restoreDict interns ids in
// numeric order, so the one scan holds the tf/ blobs (≈0.1 KB a page)
// until the dictionary is complete and decodes them after restoreDict.
//
// An archive that still holds a rinD/ in-link delta chunk — written while
// in-links were chunked, and read by nothing now — is refused: opening it
// would silently drop those edges from every In. So is one restoreDict
// cannot restore. A failed scan is an error too, never a partial index.
// Runs during Open, single-threaded, before any demon starts.
func (e *Engine) reloadDerived() error {
	var (
		err   error
		terms = map[int32]string{}
		tfs   []tfRecord
	)
	visit := func(key string, raw []byte) bool {
		switch {
		case strings.HasPrefix(key, "rinD/"):
			err = fmt.Errorf("core: archive holds in-link delta chunk %q, a record format this version does not read; there is no migration", key)
			return false
		case strings.HasPrefix(key, "dict/"):
			id, ok := idOfDictKey(key)
			if !ok {
				err = fmt.Errorf("core: archive holds dictionary record %q, which names no term id", key)
				return false
			}
			terms[id] = string(raw)
			return true
		}
		if page, ok := pageOfLnkKey(key); ok {
			if outs, ok := decodeIDSet(raw); ok {
				e.links.applyRecovered(page, outs)
			}
		} else if page, ok := pageOfTFKey(key); ok {
			tfs = append(tfs, tfRecord{page, raw})
		}
		return true
	}
	e.withView(func(view *DerivedView) {
		if scanErr := view.sn.Range(visit); scanErr != nil {
			err = scanErr
		}
	})
	if err != nil {
		return err
	}
	if err := e.restoreDict(terms, tfs); err != nil {
		return err
	}
	for _, r := range tfs {
		// An undecodable record leaves the page unclaimed, so its next
		// visit re-fetches it and republishes over the bad blob.
		tf := decodeCounts(e.dict, r.raw)
		if tf == nil {
			continue
		}
		e.idx.AddCounts(r.page, tf)
		rec := e.meta[r.page]
		rec.fetched = true
		e.meta[r.page] = rec
	}
	return nil
}

// restoreDict interns the recovered dictionary in id order and checks
// that every term comes back as its own id, so a page keeps its ids — and
// its vectors their bits — across a restart; the link index then carries
// dictionary records from the first id past them. It refuses an archive
// whose tf/ records name terms but which holds no dictionary (records
// that spell their terms, the format before dict/ records existed) and a
// dictionary with a gap, which no contiguous epoch prefix can leave (see
// linkIndex.stage). There is no migration.
func (e *Engine) restoreDict(terms map[int32]string, tfs []tfRecord) error {
	if len(terms) == 0 {
		for _, r := range tfs {
			if n, w := binary.Uvarint(r.raw); w > 0 && n > 0 {
				return fmt.Errorf("core: archive holds term-count record %q naming %d terms but no term dictionary (dict/ records): its records spell their terms, a format this version does not read; there is no migration", tfKey(r.page), n)
			}
		}
	}
	for id := int32(0); int(id) < len(terms); id++ {
		term, ok := terms[id]
		if !ok {
			return fmt.Errorf("core: term dictionary is missing %q: it holds %d records, so ids 0 to %d should all be present; there is no migration", dictKey(id), len(terms), len(terms)-1)
		}
		if got := e.dict.ID(term); got != id {
			return fmt.Errorf("core: term dictionary records %q and %q hold the same term %q", dictKey(got), dictKey(id), term)
		}
	}
	e.links.termsOut = int32(len(terms))
	return nil
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
		tf = decodeCounts(v.dict, raw)
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
// and to what any later life of the archive computes, because the
// dictionary is restored with every term at its old id).
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
// A tf/ record names its terms by dictionary id: uvarint(n), then per term
// uvarint(id − previous id) and uvarint(count), ids strictly increasing
// (the first delta counts from 0). Each term's string is stored once, as
// its dict/<id> record, and ids are durable, so the blob decodes in any
// later life of the archive.

// encodeCounts serializes term counts by id, interning any term the
// dictionary lacks, and returns the blob with the largest id it names (−1
// when it names none) — linkIndex.stage publishes the dictionary records up
// to that id. Ids are sorted, so equal count maps always encode to
// byte-identical blobs: map order here would break the record-level
// determinism the restart tests pin and churn the cold tier with rewrites
// of unchanged records.
func encodeCounts(d *text.Dict, tf map[string]int) ([]byte, int32) {
	// A word packs the term's id above its slot in counts, so one sort of
	// plain integers orders the terms by id.
	scratch := make([]uint64, 2*len(tf))
	words, counts := scratch[:len(tf)], scratch[len(tf):]
	i := 0
	for term, c := range tf {
		words[i] = uint64(d.ID(term))<<32 | uint64(i)
		counts[i] = uint64(c)
		i++
	}
	slices.Sort(words)
	buf := make([]byte, 0, binary.MaxVarintLen64+4*len(words))
	buf = binary.AppendUvarint(buf, uint64(len(words)))
	prev := uint64(0)
	for _, w := range words {
		id := w >> 32
		buf = binary.AppendUvarint(buf, id-prev)
		buf = binary.AppendUvarint(buf, counts[uint32(w)])
		prev = id
	}
	top := int32(-1)
	if len(words) > 0 {
		top = int32(prev)
	}
	return buf, top
}

// decodeCounts is the inverse of encodeCounts: nil on corrupt input and on
// a record naming an id the dictionary does not hold. The map's keys are
// the dictionary's own strings, read under one lock for the whole record,
// so nothing is allocated per term. Every value has exactly one encoding
// the decoder accepts (no padded varint, no repeated id, no trailing
// bytes), so whatever decodes re-encodes to the same bytes.
func decodeCounts(d *text.Dict, b []byte) map[string]int {
	n, w := uvarint(b)
	if w <= 0 {
		return nil
	}
	b = b[w:]
	// Every entry costs at least two bytes (delta and count), so a count
	// above half the payload is corruption — reject it before sizing the
	// map. A corrupt cold-tier record could otherwise demand a ~2^60-entry
	// allocation and OOM the process instead of degrading to "unknown".
	if n > uint64(len(b))/2 {
		return nil
	}
	terms := d.Terms()
	tf := make(map[string]int, n)
	id := uint64(0)
	for i := uint64(0); i < n; i++ {
		delta, w := uvarint(b)
		if w <= 0 || (i > 0 && delta == 0) || delta >= uint64(len(terms))-id {
			return nil // torn, a repeated id, or an id past the dictionary
		}
		b = b[w:]
		c, w := uvarint(b)
		if w <= 0 {
			return nil
		}
		b = b[w:]
		id += delta
		tf[terms[id]] = int(c)
	}
	if len(b) != 0 {
		return nil
	}
	return tf
}

// uvarint is binary.Uvarint refusing a padded encoding (a final 0x00 group
// after the first byte), so that every value has one spelling.
func uvarint(b []byte) (uint64, int) {
	v, w := binary.Uvarint(b)
	if w > 1 && b[w-1] == 0 {
		return 0, 0
	}
	return v, w
}
