package core

import (
	"encoding/binary"
	"fmt"
	"math"
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
// The derived records are the term-count record (tf/), which holds the
// page's title and names its terms by dictionary id, the dictionary
// records (dict/, one per term, published with the first page that names
// the id — see links.go) and the adjacency records (lnk/, rin/). A page's
// term counts have one form in memory, a text.Vector of raw counts sorted
// by id: the fetch path makes it once, and the tf/ blob, the index, the
// classifiers, the themes and the record cache all take it as it is, with
// no string in between. On reopen reloadDerived restores the dictionary
// with every term at its old id, then replays the recovered tf/ records to
// rebuild the inverted index (and with it N and DF) and give each page its
// title back, and the fetch path skips every recovered page instead of
// re-crawling it. The adjacency records need no replay: they are read
// where they are.

// tfKey names a page's derived term-count record in the version store.
// Like every id in a derived key it is an ordered uint (tables.go), so a
// family's records sort by id and a new page's lands after every older
// one's.
func tfKey(page int64) string { return string(appendOrdered([]byte("tf/"), uint64(page))) }

// dictKey names a term's dictionary record: its value is the term.
func dictKey(id int32) string { return string(appendOrdered([]byte("dict/"), uint64(id))) }

// idOfKey is the id a derived key of family prefix names: ok only for
// prefix followed by one ordered uint of at most limit, so a padded or
// trailing spelling is not a second key for the id.
func idOfKey(key, prefix string, limit uint64) (uint64, bool) {
	rest, ok := strings.CutPrefix(key, prefix)
	if !ok {
		return 0, false
	}
	id, tail, ok := readOrdered([]byte(rest))
	return id, ok && len(tail) == 0 && id <= limit
}

// idOfDictKey is the inverse of dictKey.
func idOfDictKey(key string) (int32, bool) {
	id, ok := idOfKey(key, "dict/", math.MaxInt32)
	return int32(id), ok
}

// pageOfTFKey is the inverse of tfKey: ok only for a page id (≥ 1).
func pageOfTFKey(key string) (int64, bool) {
	id, ok := idOfKey(key, "tf/", math.MaxInt64)
	return int64(id), ok && id >= 1
}

// reloadDerived rebuilds the in-memory text machinery — the dictionary
// and the inverted index, whose map sizes are the collection's N and DF —
// and the fetch claims and titles from the derived records the version store
// recovered from its cold tier, so a restarted server answers
// search/profile/theme/trail queries and never re-crawls a page whose
// derived state survived. Of the adjacency records it only counts the ids
// of each lnk/ record (idSetLen, no decode), whose sum is the link graph's
// edge count; readers decode the records where they are.
//
// Nothing has published yet, so the chain is empty and Range yields the
// cold tier in key order: the dict/ records first, in id order (an id is
// an ordered uint), then every tf/ record. Each term is interned as its
// record arrives and must come back as its own id, so a page keeps its ids
// — and its vectors their bits — across a restart; each tf/ record is
// decoded as it arrives, against the whole dictionary. The link index then
// carries dictionary records from the first id past them.
//
// A dict/ or tf/ key that dictKey or tfKey does not spell is refused (a
// second spelling of an id would count a page twice in N and DF, or
// replace a term), and so is a dictionary with a gap, which no contiguous
// epoch prefix can leave (see linkIndex.publish), or with a term twice. A
// failed scan is an error too, never a partial index.
// Runs during Open, single-threaded, before any demon starts.
func (e *Engine) reloadDerived() error {
	var (
		err   error
		terms int32 // dictionary records restored so far
	)
	visit := func(key string, raw []byte) bool {
		switch {
		case strings.HasPrefix(key, "dict/"):
			id, ok := idOfDictKey(key)
			switch {
			case !ok:
				err = fmt.Errorf("core: archive holds dictionary record %q, which names no term id", key)
			case id != terms:
				err = fmt.Errorf("core: term dictionary is missing %q: after %d records the next is %q; there is no migration", dictKey(terms), terms, key)
			default:
				if got := e.dict.ID(string(raw)); got != id {
					err = fmt.Errorf("core: term dictionary records %q and %q hold the same term %q", dictKey(got), key, raw)
				}
				terms++
			}
		case strings.HasPrefix(key, "tf/"):
			page, ok := pageOfTFKey(key)
			if !ok {
				err = fmt.Errorf("core: archive holds term-count record %q, which names no page id", key)
				break
			}
			// An undecodable record leaves the page unclaimed, so its next
			// visit re-fetches it and republishes over the bad blob.
			title, tf := decodeTF(e.dict, raw)
			if tf.IDs == nil {
				break
			}
			e.idx.AddVector(page, tf)
			rec := e.meta[page]
			rec.fetched, rec.title = true, string(title)
			e.meta[page] = rec
		case strings.HasPrefix(key, "lnk/"):
			e.links.edges.Add(int64(idSetLen(raw)))
		}
		return err == nil
	}
	e.withView(func(view *DerivedView) {
		if scanErr := view.sn.Range(visit); scanErr != nil {
			err = scanErr
		}
	})
	e.links.termsOut = terms
	return err
}

// DerivedView is a consistent read view over the engine's published
// derived data, pinned at one version-store epoch for the duration of one
// withView call. Reads are lock-free and repeatable for the lifetime of
// the view: a page fetched after the view was pinned stays invisible to
// it (its TermCounts stay absent for the whole pass), exactly like a page
// that was never fetched.
//
// The view is also the pinned face of the link graph: Out, In and Has
// decode the page's adjacency records at the view's epoch — lnk/ for
// out-links, rin/ for in-links — satisfying graph.AdjacencySource, so
// trail ranking, link-proximity recommendation and crawl-frontier checks
// all read the same frozen graph their term-stat reads come from.
//
// A view keeps no decoded records of its own. Every read goes to the
// engine's shared decoded-record cache (cache.go), keyed by (epoch, page,
// kind), and on a miss to the pinned snapshot: a usage or replay pass that
// reads the same few pages many times, a second pass over an unchanged
// epoch and a concurrent pass over the same one all reuse decoded values
// instead of re-walking chains and re-decoding blobs. Published epochs are
// immutable, so the cache is never invalidated in place, only evicted (LRU
// pressure, or the epoch falling below the pin floor), and a view reads the
// same value every time. Everything that comes out of the cache is shared:
// callers must treat returned slices and vectors as read-only.
type DerivedView struct {
	sn    *version.Snapshot
	dict  *text.Dict
	cache *recordCache // the engine's shared decoded-record cache
}

// withView runs fn over the derived data pinned at the current epoch and
// unpins when fn returns or panics. It is the only way to obtain a view, so
// a pin cannot leak; fn must not let the view outlive the call (no field,
// channel or goroutine hand-off) — a view used after its scope panics.
func (e *Engine) withView(fn func(*DerivedView)) {
	sn := e.vs.Acquire()
	v := &DerivedView{sn: sn, dict: e.dict, cache: e.cache}
	defer func() {
		v.sn = nil
		sn.Release()
	}()
	fn(v)
}

// pinned returns the view's snapshot, or panics once the pin's scope has
// ended. Every accessor starts here, before the shared cache, which could
// otherwise keep answering from an epoch the store is free to fold away.
func (v *DerivedView) pinned() *version.Snapshot {
	if v.sn == nil {
		panic("core: DerivedView used after its withView scope ended")
	}
	return v.sn
}

// TermCounts returns the page's raw term counts by id as of the view's
// epoch, with nil IDs when the page had no decodable tf/ record as of the
// pin (a record with no terms has empty, non-nil IDs). A page's vector for
// the mining passes is this one: its weights are the counts, and its ids
// are the same in any later life of the archive, because the dictionary is
// restored with every term at its old id. The result is shared through the
// record cache: treat it as read-only.
func (v *DerivedView) TermCounts(page int64) text.Vector {
	sn := v.pinned()
	ck := cacheKey{epoch: sn.Epoch(), page: page, kind: kindTF}
	if val, ok := v.cache.get(ck); ok {
		return val.(text.Vector)
	}
	var tf text.Vector
	if raw, ok := sn.Get(tfKey(page)); ok {
		_, tf = decodeTF(v.dict, raw)
	}
	v.cache.put(ck, tf, sizeofVec(tf))
	return tf
}

// adj decodes one adjacency record through the shared cache. The cache
// stores nil for "no record at this epoch" and a non-nil (possibly empty)
// slice for a known page, mirroring decodeIDSet's contract.
func (v *DerivedView) adj(kind cacheKind, key string, page int64) []int64 {
	sn := v.pinned()
	ck := cacheKey{epoch: sn.Epoch(), page: page, kind: kind}
	if val, ok := v.cache.get(ck); ok {
		return val.([]int64)
	}
	var ids []int64
	if raw, ok := sn.Get(key); ok {
		if dec, ok := decodeIDSet(raw); ok {
			ids = dec
		}
	}
	v.cache.put(ck, ids, sizeofIDs(ids))
	return ids
}

// Out returns the page's out-link adjacency as of the view's epoch (nil
// when the page has no lnk/ record; callers must not mutate the slice).
// Out implements part of graph.AdjacencySource.
func (v *DerivedView) Out(page int64) []int64 {
	return v.adj(kindOut, lnkKey(page), page)
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
	return v.adj(kindIn, rinKey(page), page)
}

// Has reports whether the page is known to the link graph at the view's
// epoch: it has published out-links (even an empty set) or something
// links to it. Has implements part of graph.AdjacencySource.
func (v *DerivedView) Has(page int64) bool {
	return v.Out(page) != nil || v.In(page) != nil
}

// --- codec ---
//
// A tf/ record holds what a fetch learned of a page: its title, as
// uvarint(len) ‖ the title's bytes, then its term counts by dictionary id:
// uvarint(n), then per term, ids strictly increasing and each delta counted
// from the previous id (the first from 0), uvarint(delta<<1 | 1) for a
// term that occurs once, and otherwise uvarint(delta<<1) ‖ uvarint(count).
// Most of a page's terms occur once, so most terms take one byte. Each
// term's string is stored once, as its dict/<id> record, and ids are
// durable, so the blob decodes in any later life of the archive.

// encodeTF serializes a page's title and raw term counts, ids sorted as a
// text.Vector keeps them, and returns the blob with the largest id it
// names (−1 when it names none) — linkIndex.publish stages the dictionary
// records up to that id. Equal titles and counts always encode to
// byte-identical blobs, which the restart tests pin and which keeps the
// cold tier from churning with rewrites of unchanged records.
func encodeTF(title string, tf text.Vector) ([]byte, int32) {
	buf := make([]byte, 0, 2*binary.MaxVarintLen64+len(title)+3*len(tf.IDs))
	buf = binary.AppendUvarint(buf, uint64(len(title)))
	buf = append(buf, title...)
	buf = binary.AppendUvarint(buf, uint64(len(tf.IDs)))
	prev := int32(0)
	for i, id := range tf.IDs {
		delta := uint64(id-prev) << 1
		if c := uint64(tf.Weights[i]); c == 1 {
			buf = binary.AppendUvarint(buf, delta|1)
		} else {
			buf = binary.AppendUvarint(binary.AppendUvarint(buf, delta), c)
		}
		prev = id
	}
	top := int32(-1)
	if len(tf.IDs) > 0 {
		top = prev
	}
	return buf, top
}

// maxCount is the largest count decodeTF accepts: no page holds 2^31
// occurrences of a term, and postings keep counts as int32.
const maxCount = math.MaxInt32

// decodeTF is the inverse of encodeTF. The title it returns is a slice of
// b. It returns a nil title and nil IDs on corrupt input, on a count past
// maxCount and on a record naming an id the dictionary does not hold; a
// decoded record's IDs are never nil, even for a page with no terms. So a
// nil-IDs vector means "no record" wherever the engine carries a page's
// counts, from here to every consumer. Every value has exactly one
// encoding the decoder accepts (no padded varint, no repeated id, no count
// of 1 written out, no trailing bytes), so whatever decodes re-encodes to
// the same bytes.
func decodeTF(d *text.Dict, b []byte) (title []byte, tf text.Vector) {
	size, w := uvarint(b)
	if w <= 0 || size > uint64(len(b)-w) {
		return nil, text.Vector{}
	}
	title, b = b[w:w+int(size)], b[w+int(size):]
	n, w := uvarint(b)
	if w <= 0 {
		return nil, text.Vector{}
	}
	b = b[w:]
	// Every entry costs at least a byte, so a count above the payload is
	// corruption — reject it before sizing the slices. A corrupt cold-tier
	// record could otherwise demand a ~2^60-entry allocation and OOM the
	// process instead of degrading to "unknown".
	if n > uint64(len(b)) {
		return nil, text.Vector{}
	}
	terms := uint64(d.Size())
	tf = text.Vector{IDs: make([]int32, 0, n), Weights: make([]float64, 0, n)}
	id := uint64(0)
	for i := uint64(0); i < n; i++ {
		v, w := uvarint(b)
		delta := v >> 1
		if w <= 0 || (i > 0 && delta == 0) || delta >= terms-id {
			return nil, text.Vector{} // torn, a repeated id, or an id past the dictionary
		}
		b = b[w:]
		c := uint64(1)
		if v&1 == 0 {
			if c, w = uvarint(b); w <= 0 || c == 1 || c > maxCount {
				return nil, text.Vector{} // torn, a count of 1 written out, or past maxCount
			}
			b = b[w:]
		}
		id += delta
		tf.IDs = append(tf.IDs, int32(id))
		tf.Weights = append(tf.Weights, float64(c))
	}
	if len(b) != 0 {
		return nil, text.Vector{}
	}
	return title, tf
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
