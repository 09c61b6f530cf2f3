package core

import (
	"encoding/binary"
	"sort"
	"strconv"
	"strings"
	"sync"

	"memex/internal/graph"
	"memex/internal/text"
	"memex/internal/version"
)

// This file makes the hyperlink graph a first-class versioned derived
// record, owned by the version store exactly like the term-count record —
// one record per page and direction:
//
//	lnk/<page>  the page's full out-link adjacency (sorted page ids)
//	rin/<page>  the page's full in-link adjacency (sorted page ids)
//
// Every edge write — a fetch's discovered out-links, a visit's
// referrer→page transition — goes through linkIndex.publish, which stages
// the source's updated lnk/ record plus the updated rin/ record of every
// newly linked target into one version-store batch (the fetch path adds
// the page's tf/ record to the same batch, so a snapshot can never see a
// page's terms without its links, nor an edge in rin/ without it in lnk/).
// The fold moves the records to the cold tier with everything else, so the
// link graph survives restarts: reloadDerived replays the recovered lnk/
// records into the in-memory authority graph at Open, which is what lets
// Discover resume its crawl frontier without re-fetching anything.
//
// Reads never touch the authority graph: analysis passes pin a
// DerivedView and decode lnk/ and rin/ records at one frozen epoch (the
// graph.AdjacencySource implementation in derived.go). The authority
// exists for the producer side only: publish needs the current adjacency
// to compute the next record (a read-modify-write), and the single lock
// below makes those RMWs atomic and allocates their epochs in the same
// order, so every published record is the union of all edges published
// before it and the store's last-writer-wins yields the full adjacency.
//
// A record is rewritten whole, so a new in-link costs O(in-degree) bytes.
// DESIGN.md §4 has the measured in-degrees that make that the right trade
// and the point at which to measure again.
//
// The same lock carries the term dictionary to the store. A tf/ record
// names its terms by id, and each id's string is its dict/<id> record,
// written once: stage puts the records of every id the page's tf/ record
// reaches that no batch has carried yet (termsOut upward) into the page's
// own batch, in the critical section that allocates its epoch. Any later
// batch naming those ids has a later epoch, and snapshots, the fold and
// crash recovery all take a contiguous epoch prefix, so whatever holds a
// tf/ record holds the dictionary records it names — with no commit and
// no lock of their own.

// lnkKey names a page's out-adjacency record in the version store.
func lnkKey(page int64) string { return "lnk/" + strconv.FormatInt(page, 10) }

// rinKey names a page's reverse (in-link) adjacency record.
func rinKey(page int64) string { return "rin/" + strconv.FormatInt(page, 10) }

// pageOfLnkKey is the inverse of lnkKey (ok=false for foreign keys).
func pageOfLnkKey(key string) (int64, bool) {
	if !strings.HasPrefix(key, "lnk/") {
		return 0, false
	}
	id, err := strconv.ParseInt(key[4:], 10, 64)
	return id, err == nil
}

// linkIndex is the engine's link-graph producer: the in-memory authority
// adjacency (a graph.Graph rebuilt from recovered records at Open) plus
// the mutex that serialises adjacency read-modify-writes — and the
// dictionary's high-water mark — against the version store.
type linkIndex struct {
	vs   *version.Store
	dict *text.Dict
	mu   sync.Mutex
	g    *graph.Graph
	// termsOut is the first dictionary id no batch has carried yet (guarded
	// by mu; restoreDict sets it at Open).
	termsOut int32
	// afterStage, set only by tests, runs in publish right after stage:
	// the window where a panic must not leave the dictionary with a gap.
	afterStage func()
}

func newLinkIndex(vs *version.Store, dict *text.Dict) *linkIndex {
	return &linkIndex{vs: vs, dict: dict, g: graph.New()}
}

// publish records the edges from→targets: any edge not yet in the
// authority graph is staged as the updated lnk/ record of from plus the
// updated rin/ record of each newly linked target, and published as one
// batch. tf, when non-nil, is the page's term counts, whose tf/ record
// rides in the same batch (the fetch path), making term and link state
// snapshot-atomic per page; a tf-carrying call always publishes (even with
// zero links) so "archived" implies "adjacency known" for every snapshot
// that sees the page.
//
// Only epoch allocation, the adjacency union, the capture of the
// post-union lists and the staging of new dictionary records run under the
// lock. That ordering makes record content monotone in epoch order — a
// publisher that allocates a later epoch has already observed every
// earlier publisher's edges — so the expensive half (encoding the records,
// freezing and installing the batch) runs outside the lock and concurrent
// fetch workers publish in parallel; last-writer-wins in the store then
// always yields the full union, even when batches reach Publish out of
// epoch order.
func (li *linkIndex) publish(from int64, targets []int64, tf map[string]int) {
	var tfBlob []byte
	top := int32(-1)
	if tf != nil {
		tfBlob, top = encodeCounts(li.dict, tf)
	}
	b, outs, fresh, ins := li.stage(from, targets, tf != nil, top)
	if b == nil {
		return // nothing new: no epoch, no record churn
	}
	// The batch publishes on every path. Were encoding to panic, a leaked
	// epoch would stall the watermark forever under the contiguity rule,
	// and an aborted one would drop the dictionary records stage put in it
	// after termsOut had moved past them, leaving a gap under every later
	// record naming those ids. Every page record is encoded before the
	// first is put, so on that path the batch holds the dictionary records
	// alone. (The authority is then ahead of the records until the page's
	// next new link rewrites them whole; edges are never lost in-process,
	// only un-persisted.)
	defer b.Publish()
	if li.afterStage != nil {
		li.afterStage()
	}
	lnk := encodeIDSet(outs)
	rins := make([][]byte, len(fresh))
	for i := range fresh {
		rins[i] = encodeIDSet(ins[i])
	}
	if tfBlob != nil {
		b.Put(tfKey(from), tfBlob)
	}
	b.Put(lnkKey(from), lnk)
	for i, t := range fresh {
		b.Put(rinKey(t), rins[i])
	}
}

// stage is publish's locked half: union the new edges into the authority
// (one graph-lock acquisition reports which targets were fresh, each one's
// in-adjacency and the source's out-adjacency after the union), allocate
// the epoch, and put into the batch the dictionary record of every id from
// termsOut up to top, the largest id the page's tf/ record names. The
// in-lists must be captured here: read after unlock they could absorb an
// edge whose own batch publishes at a later epoch, and a view pinned
// between the two would see that edge in rin/ but not in its source's
// lnk/. The dictionary records must be staged here for the same reason
// (see the file comment). A panic anywhere inside still releases the lock
// (deferred), so a wedged worker cannot stall every future publish.
// Returns a nil batch when there is nothing to publish.
func (li *linkIndex) stage(from int64, targets []int64, force bool, top int32) (b *version.Batch, outs, fresh []int64, ins [][]int64) {
	li.mu.Lock()
	defer li.mu.Unlock()
	fresh, ins, outs = li.g.UnionOut(from, targets)
	if len(fresh) == 0 {
		if !force {
			return nil, nil, nil, nil
		}
		li.g.AddNode(from) // a fetched page is known to the graph, links or none
	}
	newTerms := max(int(top-li.termsOut+1), 0)
	b = li.vs.BeginSized(2 + len(fresh) + newTerms)
	if newTerms > 0 {
		terms := li.dict.Terms()
		for id := li.termsOut; id <= top; id++ {
			b.Put(dictKey(id), []byte(terms[id]))
		}
		li.termsOut = top + 1
	}
	return b, outs, fresh, ins
}

// applyRecovered replays one recovered lnk/ record into the authority
// graph (Open's reload path; records already exist, nothing publishes).
func (li *linkIndex) applyRecovered(from int64, outs []int64) {
	li.g.ApplyOut(from, outs)
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
// then per id uvarint(id - previous). Page ids are durable, so records
// written by one life of the server decode in the next.

// encodeIDSet canonicalises ids (sort, dedupe) and serialises them.
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

// canonIDs sorts and dedupes ids in place, returning a non-nil slice even
// for empty input (the "known, no links" shape).
func canonIDs(ids []int64) []int64 {
	if ids == nil {
		return []int64{}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	n := 0
	for i, id := range ids {
		if i > 0 && id == ids[n-1] {
			continue
		}
		ids[n] = id
		n++
	}
	return ids[:n]
}

// decodeIDSet is the inverse of encodeIDSet (nil, false on corrupt input;
// an empty set decodes to a non-nil empty slice so callers can tell
// "known, no links" from "unknown"). Trailing bytes after the set are
// ignored: rin/ records written while in-links were chunked carry a
// start-seq suffix there.
func decodeIDSet(b []byte) ([]int64, bool) {
	n, w := binary.Uvarint(b)
	if w <= 0 {
		return nil, false
	}
	b = b[w:]
	// Every id costs at least one byte, so a count exceeding the payload
	// is corruption — reject it before sizing the slice (a huge bogus
	// count would otherwise panic in make instead of failing gracefully).
	if n > uint64(len(b)) {
		return nil, false
	}
	ids := make([]int64, 0, n)
	prev := int64(0)
	for i := uint64(0); i < n; i++ {
		d, w := binary.Uvarint(b)
		if w <= 0 {
			return nil, false
		}
		b = b[w:]
		prev += int64(d)
		ids = append(ids, prev)
	}
	return ids, true
}
