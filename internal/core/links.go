package core

import (
	"encoding/binary"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"memex/internal/text"
	"memex/internal/textindex"
	"memex/internal/version"
)

// This file makes the hyperlink graph a first-class versioned derived
// record, owned by the version store exactly like the term-count record —
// one record per page and direction:
//
//	lnk/<page>  the page's full out-link adjacency (sorted page ids)
//	rin/<page>  the page's full in-link adjacency (sorted page ids)
//
// The records are the link graph's only home. Every edge write — a fetch's
// discovered out-links, a visit's referrer→page transition — goes through
// linkIndex.publish, a read-modify-write of the records under one lock: it
// reads the source's lnk/ record and the rin/ record of every newly linked
// target from the latest publish, and stages their unions into one
// version-store batch (the fetch path adds the page's tf/ record to the
// same batch, so a snapshot can never see a page's terms without its
// links, nor an edge in rin/ without it in lnk/). linkIndex is the version
// store's only producer and publishes its batch before it releases the
// lock, so the snapshot read at the top of the critical section holds
// every edge published before it: each record is the union of all edges
// ever published into it. The fold moves the records to the cold tier
// with everything else, so the link graph survives restarts with nothing
// to rebuild at Open, which is what lets Discover resume its crawl
// frontier without re-fetching anything.
//
// Analysis passes pin a DerivedView and decode lnk/ and rin/ records at
// one frozen epoch (the graph.AdjacencySource implementation in
// derived.go); the few live readers (Out) read the latest publish.
//
// A record is rewritten whole, so a new in-link costs O(in-degree) bytes.
// DESIGN.md §4 has the measured in-degrees that make that the right trade
// and the point at which to measure again.
//
// The same lock carries the term dictionary to the store. A tf/ record
// names its terms by id, and each id's string is its dict/<id> record,
// written once: publish puts the records of every id the page's tf/ record
// reaches that no batch has carried yet (termsOut upward) into the page's
// own batch, and advances termsOut only once that batch has published. A
// batch takes its epoch when it publishes, so any later batch naming those
// ids has a later epoch, and snapshots, the fold and crash recovery all
// take an epoch prefix, so whatever holds a tf/ record holds the
// dictionary records it names — with no commit and no lock of their own.
// A publish that fails or panics before its batch publishes leaves
// termsOut alone, and the next page stages those ids again.

// lnkKey names a page's out-adjacency record in the version store.
func lnkKey(page int64) string { return "lnk/" + strconv.FormatInt(page, 10) }

// rinKey names a page's reverse (in-link) adjacency record.
func rinKey(page int64) string { return "rin/" + strconv.FormatInt(page, 10) }

// linkIndex is the engine's derived-state producer: the mutex under which
// every lnk/ and rin/ record is read and rewritten and every batch is
// published, the dictionary's high-water mark, and the link graph's edge
// count.
type linkIndex struct {
	vs   *version.Store
	dict *text.Dict
	// idx counts a fetched page's terms in publish's critical section, once
	// every read has succeeded and before the batch makes its tf/ record
	// visible (nil for a producer that never publishes one).
	idx *textindex.Index
	mu  sync.Mutex
	// termsOut is the first dictionary id no batch has carried yet (guarded
	// by mu; restoreDict sets it at Open).
	termsOut int32
	// edges is the number of ids in every lnk/ record: summed from the
	// records' count headers at Open, then raised by each publish.
	edges atomic.Int64
	// afterStage, set only by tests, runs in publish right after the
	// dictionary records are staged: the window where a panic must publish
	// nothing and leave termsOut where it was.
	afterStage func()
}

func newLinkIndex(vs *version.Store, dict *text.Dict, idx *textindex.Index) *linkIndex {
	return &linkIndex{vs: vs, dict: dict, idx: idx}
}

// publish records the edges from→targets as one batch: the union of from's
// lnk/ record with the targets, the rin/ record of each newly linked target
// with from added, and the dictionary records the batch must carry. tf,
// when non-nil, is the page's term counts: the index counts them and their
// tf/ record rides in the same batch (the fetch path), making term and link
// state snapshot-atomic per page; a tf-carrying call always publishes (even
// with zero links) so "archived" implies "adjacency known" for every
// snapshot that sees the page.
//
// The critical section pins the latest publish, reads the records, stages
// and publishes the batch, advances termsOut once the batch has published,
// and only then releases the lock (see the file comment). A store read that
// fails is returned, with nothing indexed, staged or published and no epoch
// taken: publishing past it would replace a record with a subset of its
// edges, for good. A panic before Publish returns leaves the watermark,
// termsOut and every record as they were. A link-only call whose
// every edge the latest lnk/ record already holds returns before taking
// the lock; edges are never removed, so that read needs no lock.
func (li *linkIndex) publish(from int64, targets []int64, tf map[string]int) error {
	if tf == nil && li.known(from, targets) {
		return nil
	}
	var tfBlob []byte
	top := int32(-1)
	if tf != nil {
		tfBlob, top = encodeCounts(li.dict, tf)
	}
	li.mu.Lock()
	defer li.mu.Unlock()
	sn := li.vs.Acquire()
	defer sn.Release()
	outs, err := readIDs(sn, lnkKey(from))
	if err != nil {
		return err
	}
	fresh := newTargets(from, outs, targets)
	if len(fresh) == 0 && tf == nil {
		return nil // nothing new: no epoch, no record churn
	}
	ins := make([][]int64, len(fresh))
	for i, t := range fresh {
		if ins[i], err = readIDs(sn, rinKey(t)); err != nil {
			return err
		}
	}
	if tf != nil {
		li.idx.AddCounts(from, tf)
	}
	b := li.vs.BeginSized(2 + len(fresh) + max(int(top-li.termsOut+1), 0))
	if top >= li.termsOut {
		terms := li.dict.Terms()
		for id := li.termsOut; id <= top; id++ {
			b.Put(dictKey(id), []byte(terms[id]))
		}
	}
	if li.afterStage != nil {
		li.afterStage()
	}
	if tfBlob != nil {
		b.Put(tfKey(from), tfBlob)
	}
	b.Put(lnkKey(from), encodeIDSet(append(outs, fresh...)))
	for i, t := range fresh {
		b.Put(rinKey(t), encodeIDSet(append(ins[i], from)))
	}
	if err := b.Publish(); err != nil {
		return err
	}
	li.termsOut = max(li.termsOut, top+1)
	li.edges.Add(int64(len(fresh)))
	return nil
}

// known reports whether the latest published lnk/ record of from already
// holds every edge from→targets. A failed read answers false, leaving the
// error to publish's own read.
func (li *linkIndex) known(from int64, targets []int64) bool {
	sn := li.vs.Acquire()
	defer sn.Release()
	outs, err := readIDs(sn, lnkKey(from))
	return err == nil && len(newTargets(from, outs, targets)) == 0
}

// newTargets returns the targets outs (sorted) lacks, sorted, without
// repeats and without from itself: a page does not link to itself.
func newTargets(from int64, outs, targets []int64) []int64 {
	fresh := make([]int64, 0, len(targets))
	for _, t := range targets {
		if _, found := slices.BinarySearch(outs, t); !found && t != from {
			fresh = append(fresh, t)
		}
	}
	return canonIDs(fresh)
}

// readIDs reads one adjacency record through sn: nil when there is none,
// or when it does not decode (the rewrite replaces it). The error is the
// store's, when it could not be read.
func readIDs(sn *version.Snapshot, key string) ([]int64, error) {
	raw, ok, err := sn.Read(key)
	if !ok || err != nil {
		return nil, err
	}
	ids, _ := decodeIDSet(raw)
	return ids, nil
}

// Out reads the page's out-links from the latest publish — the live
// fallback for pages published after a pass pinned its view (nil when the
// page has no lnk/ record). A reader degrades a failed read to "unknown",
// as Snapshot.Get does; the store counts it.
func (li *linkIndex) Out(page int64) []int64 {
	sn := li.vs.Acquire()
	defer sn.Release()
	ids, _ := readIDs(sn, lnkKey(page))
	return ids
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
