package core

import (
	"encoding/binary"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"memex/internal/graph"
	"memex/internal/version"
)

// This file makes the hyperlink graph a first-class versioned derived
// record, owned by the version store exactly like the term-count record:
//
//	lnk/<page>        the page's full out-link adjacency (sorted page ids)
//	rin/<page>        the page's base in-link record (sorted page ids)
//	rinD/<page>/<seq> one append-only in-link delta chunk (sorted page ids)
//
// # Why in-links are chunked
//
// Out-adjacency is cheap to keep as one record: a page's out-links arrive
// together (its fetch) and rarely grow afterwards. In-links are the
// opposite — a popular hub page accumulates them one at a time, from every
// other page that links to it, forever. Rewriting the full rin/ record per
// new edge costs O(in-degree) bytes per edge — O(in-degree²) cumulative
// churn through the version store and cold tier, concentrated on exactly
// the authority pages HITS-style trail mining cares about most. So the
// write path appends instead: a target's first-ever in-link creates the
// base rin/ record, and every in-link after that publishes a tiny
// rinD/<page>/<seq> delta chunk holding only the batch's new sources —
// O(new edges) bytes per publish, flat in in-degree
// (BenchmarkInLinkWriteAmplification keeps this honest).
//
// # Chunk-chain invariants
//
//   - Chunk seqs are monotone per page — never reused — and dense within
//     one "generation": seqs are allocated under linkMu in epoch order,
//     and a snapshot's watermark only advances over contiguously
//     completed epochs, so any pinned view sees a dense run starting at
//     its base record's start-seq. Readers probe from that start until
//     the first miss, capped by the producer's live counter (the
//     chunk-window hint DerivedView.In uses): the counter never resets,
//     so it is always a valid upper bound for every pinned view, and a
//     fully consolidated page probes zero chunks — no guaranteed final
//     probe miss, no cold-tier fallthrough scan.
//   - Consolidation (linkIndex.consolidate, driven by the engine's
//     version-gc demon and by Close) folds a page's chunks back into one
//     base record: a single batch puts the merged rin/ record — with the
//     next generation's start-seq (== the current counter) appended as a
//     trailing uvarint — and tombstones the closed generation's chunks.
//     The batch is atomic in the store, so no view can see the base
//     without the tombstones; GC then folds the tombstones through to
//     the cold tier, where they reclaim the disk chunks — chains stay
//     short and reopen stays cheap. Per-page thresholds are adaptive
//     (adaptiveRinThreshold): the monotone counter doubles as a lifetime
//     churn metric, so hub pages — the ones whose chains grow fastest —
//     consolidate earlier than cold pages.
//   - A base record whose generation starts at seq 0 — every page's
//     first, and a chunk-free page's only one — omits the trailing
//     uvarint: that is the compact encoding, and DerivedView.In decodes
//     a base alone, a base with chunks and chunks alone through the same
//     path.
//
// Every edge write — a fetch's discovered out-links, a visit's
// referrer→page transition — goes through linkIndex.publish, which stages
// the updated lnk/ record of the source page plus one in-link record
// (base or delta chunk) per newly linked target into one version-store
// batch (the fetch path adds the page's tf/ record to the same batch, so
// a snapshot can never see a page's terms without its links). GC folds
// the records to the cold tier with everything else, so the link graph
// survives restarts: reloadDerived replays the recovered lnk/ records
// into the in-memory authority graph at Open — and resumes each page's
// chunk seq counter above its recovered chunks, so a restarted server
// appends instead of overwriting — which is what lets Discover resume its
// crawl frontier without re-fetching anything.
//
// Reads never touch the authority graph: analysis passes pin a
// DerivedView and decode lnk/rin/rinD records at one frozen epoch (the
// graph.AdjacencySource implementation in derived.go). The authority
// graph exists for the producer side only: publish needs the current
// adjacency to compute the next record (a read-modify-write), and the
// single linkMu below makes those RMWs atomic, so every published record
// is the union of all edges published before it.

// lnkKey names a page's out-adjacency record in the version store.
func lnkKey(page int64) string { return "lnk/" + strconv.FormatInt(page, 10) }

// rinKey names a page's base reverse (in-link) adjacency record.
func rinKey(page int64) string { return "rin/" + strconv.FormatInt(page, 10) }

// rinChunkKey names one in-link delta chunk of a page.
func rinChunkKey(page int64, seq int) string {
	return "rinD/" + strconv.FormatInt(page, 10) + "/" + strconv.Itoa(seq)
}

// pageOfLnkKey is the inverse of lnkKey (ok=false for foreign keys).
func pageOfLnkKey(key string) (int64, bool) {
	if !strings.HasPrefix(key, "lnk/") {
		return 0, false
	}
	id, err := strconv.ParseInt(key[4:], 10, 64)
	return id, err == nil
}

// pageOfRinKey is the inverse of rinKey (ok=false for foreign keys,
// including rinD/ chunk keys, whose prefix does not match).
func pageOfRinKey(key string) (int64, bool) {
	if !strings.HasPrefix(key, "rin/") {
		return 0, false
	}
	id, err := strconv.ParseInt(key[4:], 10, 64)
	return id, err == nil
}

// pageOfRinChunkKey is the inverse of rinChunkKey (ok=false for foreign
// keys, including plain rin/ base records).
func pageOfRinChunkKey(key string) (page int64, seq int, ok bool) {
	rest, found := strings.CutPrefix(key, "rinD/")
	if !found {
		return 0, 0, false
	}
	slash := strings.IndexByte(rest, '/')
	if slash < 0 {
		return 0, 0, false
	}
	page, err := strconv.ParseInt(rest[:slash], 10, 64)
	if err != nil {
		return 0, 0, false
	}
	seq, err = strconv.Atoi(rest[slash+1:])
	if err != nil || seq < 0 {
		return 0, 0, false
	}
	return page, seq, true
}

// rinConsolidateThreshold is the base chunk-chain length at which the
// periodic consolidation pass (and Close) folds a page's chunks into its
// base record. It bounds both the read-side merge (In probes at most
// this many chunks plus the base between GC ticks, modulo publishes
// since the last tick) and the amortized write cost: one O(in-degree)
// base rewrite per threshold new edges. Per page the effective value is
// adaptiveRinThreshold of this.
const rinConsolidateThreshold = 8

// adaptiveRinThreshold is the per-page effective consolidation
// threshold. lifetime is the page's monotone chunk-allocation counter —
// chunks are never renumbered, so it measures cumulative in-link churn
// directly. Hub pages that have already burned through several
// generations consolidate at shorter chains (half the base past 8×, a
// quarter past 32×), shrinking exactly the chunk chains the read-side
// merge, the skip index and the record cache would otherwise have to
// cover; cold pages keep the full base threshold so one-off in-links
// don't trigger O(in-degree) rewrites. The floor of 2 keeps a hub from
// degenerating into a rewrite per edge — except when the caller's base
// is itself lower (Close and tests consolidate at 1).
func adaptiveRinThreshold(base, lifetime int) int {
	if base < 1 {
		base = 1
	}
	t := base
	switch {
	case lifetime >= 32*base:
		t = base / 4
	case lifetime >= 8*base:
		t = base / 2
	}
	if t < 2 {
		t = 2
	}
	if t > base {
		t = base
	}
	return t
}

// linkIndex is the engine's link-graph producer: the in-memory authority
// adjacency (a graph.Graph rebuilt from recovered records at Open) plus
// the mutex that serialises adjacency read-modify-writes against the
// version store. Publishing under one lock guarantees the epoch order of
// lnk/rin records matches their union order, so last-writer-wins in the
// store always yields the full accumulated adjacency — and guarantees the
// dense-seq invariant for delta chunks.
type linkIndex struct {
	vs *version.Store
	mu sync.Mutex
	g  *graph.Graph
	// chunks is each page's next chunk seq to allocate — monotone for the
	// page's whole lifetime (seqs are never reused), which is what makes
	// it a valid probe-window upper bound for every pinned view
	// (chunkNext). start is where the page's current generation begins:
	// live seqs are exactly [start, chunks) — dense, because both advance
	// in epoch order under mu. Consolidation moves start up to chunks and
	// persists it in the new base record. Both guarded by mu.
	chunks map[int64]int
	start  map[int64]int
	// rinBytes accumulates the payload bytes of every published in-link
	// record (base, chunk, or consolidation rewrite) — the write-
	// amplification metric BenchmarkInLinkWriteAmplification reports.
	rinBytes atomic.Int64
}

func newLinkIndex(vs *version.Store) *linkIndex {
	return &linkIndex{vs: vs, g: graph.New(), chunks: map[int64]int{}, start: map[int64]int{}}
}

// rinPut is one staged in-link record: the base record of a target's
// first in-link, or a delta chunk for a target that already has some.
// start is the generation start-seq a base record persists (always 0 for
// delta chunks and for a fresh page, where it takes no bytes).
type rinPut struct {
	key   string
	ids   []int64
	start int
}

// publish records the edges from→targets: any edge not yet in the
// authority graph is staged as an updated lnk/ record for from plus one
// in-link record per new target — the base rin/ record when this is the
// target's first in-link, a rinD/ delta chunk holding just the new source
// otherwise — and published as one batch. tfBlob, when non-nil, is the
// page's term-count record riding in the same batch (the fetch path),
// making term and link state snapshot-atomic per page; a tf-carrying call
// always publishes (even with zero links) so "archived" implies
// "adjacency known" for every snapshot that sees the page.
//
// Only epoch allocation, the adjacency-union reads, seq allocation and
// the authority application run under the lock. That ordering makes
// record content monotone in epoch order — a publisher that allocates a
// later epoch has already observed every earlier publisher's edges and
// chunk seqs — so the expensive half (encoding the records, freezing and
// installing the batch) runs outside the lock and concurrent fetch
// workers publish in parallel; last-writer-wins in the store then always
// yields the full union, even when batches reach Publish out of epoch
// order.
func (li *linkIndex) publish(from int64, targets []int64, tfBlob []byte) {
	b, outs, rins := li.stage(from, targets, tfBlob != nil)
	if b == nil {
		return // nothing new: no epoch, no record churn
	}
	// The deferred Abort is a no-op after Publish but completes the epoch
	// if encoding panics — a leaked epoch would stall the watermark
	// forever under the contiguity rule. (On that panic path the
	// authority is ahead of the records until the next consolidation
	// re-unions the target; edges are never lost in-process, only
	// un-persisted.)
	defer b.Abort()
	if tfBlob != nil {
		b.Put(tfKey(from), tfBlob)
	}
	b.Put(lnkKey(from), encodeIDSet(outs))
	for _, r := range rins {
		blob := encodeIDSetStart(r.ids, r.start)
		li.rinBytes.Add(int64(len(blob)))
		b.Put(r.key, blob)
	}
	b.Publish()
}

// stage is publish's locked half: union the new edges into the authority
// (one graph-lock acquisition reports which were fresh, the post-union
// out-adjacency and which targets had no in-link before), allocate the
// epoch, and route each fresh target to its in-link record — base for a
// first in-link, a freshly allocated delta chunk otherwise. A panic
// anywhere inside still releases the lock and completes the epoch (both
// deferred), so a wedged worker cannot stall every future publish or the
// watermark. Returns a nil batch when there is nothing to publish.
func (li *linkIndex) stage(from int64, targets []int64, force bool) (b *version.Batch, outs []int64, rins []rinPut) {
	li.mu.Lock()
	defer li.mu.Unlock()
	fresh, first, outs := li.g.UnionOut(from, targets)
	if len(fresh) == 0 {
		if !force {
			return nil, nil, nil
		}
		li.g.AddNode(from) // a fetched page is known to the graph, links or none
	}
	b = li.vs.BeginSized(2 + len(fresh))
	committed := false
	defer func() {
		if !committed {
			b.Abort()
			b = nil
		}
	}()
	rins = make([]rinPut, len(fresh))
	for i, t := range fresh {
		if first[i] {
			// First in-link ever: the base record is born with it, keeping
			// the invariant that any page with chunks also has a base —
			// and a page whose in-degree stays 1 (the common case in a
			// long-tailed link graph) never grows a chunk chain at all.
			// The persisted start is normally 0 here; carrying the live
			// value keeps the record honest even if a recovered archive
			// ever presents chunks for a page whose lnk/ side was lost.
			rins[i] = rinPut{key: rinKey(t), ids: []int64{from}, start: li.start[t]}
			continue
		}
		seq := li.chunks[t]
		li.chunks[t] = seq + 1
		rins[i] = rinPut{key: rinChunkKey(t, seq), ids: []int64{from}}
	}
	committed = true
	return b, outs, rins
}

// consolidate folds every page whose live chunk window has reached its
// adaptive threshold (threshold is the base; hub pages fold earlier —
// see adaptiveRinThreshold) back into a single base record: one batch
// per page puts the merged rin/ record (the authority's full
// in-adjacency — which also re-unions any edge a panicked publish failed
// to persist — tagged with the next generation's start-seq) and
// tombstones the closed generation's chunks; the next generation
// continues the monotone seq counter. The engine's version-gc demon runs
// it ahead of each GC so the subsequent fold writes one consolidated
// record to the cold tier and the tombstones reclaim the disk chunks;
// Close runs it so reopen starts from short chains. Returns the number
// of pages consolidated.
//
// Like publish, only the cheap half runs under the lock, and each page
// is its own batch so the lock is held for one O(in-degree) adjacency
// capture at a time — publishers interleave between pages rather than
// stalling behind one capture of every hub's full in-list (the
// lock-across-bulk-work shape PageRank just shed). The capture must stay
// under the lock, though: read after unlock it could absorb an edge
// whose chunk publishes at a later epoch, and a view pinned between the
// two would see the edge in the in-record but not in its source's lnk/
// record — a torn pair the one-batch-per-edge-write design exists to
// prevent. Epoch order makes the counter reset safe: any chunk staged
// for the same page after the lock drops gets a later epoch than the
// consolidation batch, so its seq-0 record shadows the tombstone rather
// than the other way round.
func (li *linkIndex) consolidate(threshold int) int {
	if threshold < 1 {
		threshold = 1
	}
	li.mu.Lock()
	var targets []int64
	for t, n := range li.chunks {
		if n-li.start[t] >= adaptiveRinThreshold(threshold, n) {
			targets = append(targets, t)
		}
	}
	li.mu.Unlock()
	if len(targets) == 0 {
		return 0
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	done := 0
	for _, t := range targets {
		if li.consolidateOne(t, threshold) {
			done++
		}
	}
	return done
}

// consolidateOne folds one page's live chunk window into its base record
// (see consolidate). The new base carries start-seq == the page's
// current counter, and the window's chunks [start, count) are
// tombstoned; the counter itself never moves backwards, so pinned views
// keep valid probe bounds. Publishing can in principle panic (batch
// misuse, allocation failure mid-encode); the deferred recovery rolls
// the generation start back — the un-tombstoned chunks are still live
// and must stay inside the probe window — and, because the restored
// window still clears the threshold, the next GC tick retries the fold
// immediately.
func (li *linkIndex) consolidateOne(t int64, threshold int) bool {
	li.mu.Lock()
	count := li.chunks[t]
	s0 := li.start[t]
	if count-s0 < adaptiveRinThreshold(threshold, count) {
		// Lost a race with another consolidation pass (e.g. Close vs the
		// GC demon's final tick): nothing left to fold here.
		li.mu.Unlock()
		return false
	}
	merged := li.g.In(t)
	li.start[t] = count
	b := li.vs.BeginSized(1 + count - s0)
	li.mu.Unlock()

	committed := false
	defer func() {
		if committed {
			return
		}
		b.Abort() // completes the epoch so the watermark cannot stall
		li.mu.Lock()
		if li.start[t] == count {
			li.start[t] = s0
		}
		li.mu.Unlock()
	}()
	blob := encodeIDSetStart(merged, count)
	li.rinBytes.Add(int64(len(blob)))
	b.Put(rinKey(t), blob)
	for seq := s0; seq < count; seq++ {
		b.Delete(rinChunkKey(t, seq))
	}
	b.Publish()
	committed = true
	return true
}

// applyRecovered replays one recovered lnk/ record into the authority
// graph (Open's reload path; records already exist, nothing publishes).
func (li *linkIndex) applyRecovered(from int64, outs []int64) {
	li.g.ApplyOut(from, outs)
}

// resumeChunks installs the recovered per-page chunk state (Open's
// reload path): nextSeq maps page → one past its highest live chunk seq,
// and starts maps page → the start-seq its recovered base record
// carries. The counter resumes past both — seqs are monotone across
// lives, so the next delta appends after the recovered generation
// instead of overwriting it — and the generation start resumes so the
// next consolidation tombstones exactly the live window.
func (li *linkIndex) resumeChunks(nextSeq, starts map[int64]int) {
	li.mu.Lock()
	defer li.mu.Unlock()
	for page, n := range nextSeq {
		if n > li.chunks[page] {
			li.chunks[page] = n
		}
	}
	for page, s := range starts {
		if s > li.start[page] {
			li.start[page] = s
		}
		if s > li.chunks[page] {
			li.chunks[page] = s
		}
	}
}

// chunkNext returns one past the highest chunk seq ever allocated for
// the page. The counter is monotone for the page's lifetime, so the
// value is a valid upper probe bound for any pinned view, no matter when
// it was pinned — the chunk-window hint DerivedView.In uses to stop its
// merge at the last live chunk instead of paying a guaranteed probe
// miss.
func (li *linkIndex) chunkNext(page int64) int {
	li.mu.Lock()
	defer li.mu.Unlock()
	return li.chunks[page]
}

// pendingChunks reports the number of live delta chunks across all pages
// (observability and tests): the sum of the per-page [start, next)
// windows.
func (li *linkIndex) pendingChunks() int {
	li.mu.Lock()
	defer li.mu.Unlock()
	n := 0
	for page, c := range li.chunks {
		n += c - li.start[page]
	}
	return n
}

// Out returns the authority graph's current out-adjacency — the live
// fallback for pages published after a pass pinned its view.
func (li *linkIndex) Out(page int64) []int64 { return li.g.Out(page) }

// Counts reports authority graph size for Status.
func (li *linkIndex) Counts() (nodes, edges int) {
	return li.g.NodeCount(), li.g.EdgeCount()
}

// --- adjacency codec ---
//
// Adjacency records store a sorted id set, delta-encoded: uvarint(n),
// then per id uvarint(id - previous). Like the term-count codec, nothing
// in the blob is process-local, so records written by one life of the
// server decode in the next. Base records and delta chunks share the
// codec; a chunk is simply a small set.

// encodeIDSet canonicalises ids (sort, dedupe — canonIDs in derived.go,
// shared with the read-side chunk merge) and serialises them.
func encodeIDSet(ids []int64) []byte {
	set := canonIDs(append([]int64(nil), ids...))
	buf := make([]byte, 0, binary.MaxVarintLen64*(len(set)+1))
	buf = binary.AppendUvarint(buf, uint64(len(set)))
	prev := int64(0)
	for _, id := range set {
		buf = binary.AppendUvarint(buf, uint64(id-prev))
		prev = id
	}
	return buf
}

// decodeIDSet is the inverse of encodeIDSet (nil, false on corrupt input;
// an empty set decodes to a non-nil empty slice so callers can tell
// "known, no links" from "unknown"). Trailing bytes after the set are
// ignored — which is what lets base rin/ records carry a start-seq
// suffix newer code reads and older code never noticed.
func decodeIDSet(b []byte) ([]int64, bool) {
	ids, _, ok := decodeIDSetRest(b)
	return ids, ok
}

// decodeIDSetRest decodes the id set and returns whatever bytes follow
// it.
func decodeIDSetRest(b []byte) ([]int64, []byte, bool) {
	n, w := binary.Uvarint(b)
	if w <= 0 {
		return nil, nil, false
	}
	b = b[w:]
	// Every id costs at least one byte, so a count exceeding the payload
	// is corruption — reject it before sizing the slice (a huge bogus
	// count would otherwise panic in make instead of failing gracefully).
	if n > uint64(len(b)) {
		return nil, nil, false
	}
	ids := make([]int64, 0, n)
	prev := int64(0)
	for i := uint64(0); i < n; i++ {
		d, w := binary.Uvarint(b)
		if w <= 0 {
			return nil, nil, false
		}
		b = b[w:]
		prev += int64(d)
		ids = append(ids, prev)
	}
	return ids, b, true
}

// encodeIDSetStart is encodeIDSet plus the generation start-seq appended
// as a trailing uvarint. A zero start is omitted — the compact encoding —
// so a fresh page's base record (and every delta chunk, which always
// passes 0) is exactly its id set.
func encodeIDSetStart(ids []int64, startSeq int) []byte {
	buf := encodeIDSet(ids)
	if startSeq > 0 {
		buf = binary.AppendUvarint(buf, uint64(startSeq))
	}
	return buf
}

// decodeIDSetStart decodes a base rin/ record: the id set plus its
// generation start-seq (0 when the suffix is absent). A malformed suffix
// fails the whole record, like any other corruption.
func decodeIDSetStart(b []byte) ([]int64, int, bool) {
	ids, rest, ok := decodeIDSetRest(b)
	if !ok {
		return nil, 0, false
	}
	if len(rest) == 0 {
		return ids, 0, true
	}
	s, w := binary.Uvarint(rest)
	if w <= 0 || w != len(rest) || s > 1<<31 {
		return nil, 0, false
	}
	return ids, int(s), true
}
