package core

import (
	"cmp"
	"encoding/binary"
	"math"
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
// discovered out-links, a community visit's referrer→page transition —
// goes through linkIndex.publish, a read-modify-write of the records under
// one lock. It takes an analyzer's whole group at once: it reads each
// source's lnk/ record and the rin/ record of every newly linked target
// from the latest publish, once each, and stages their unions into one
// version-store batch (the fetch path adds each fetched page's tf/ record
// to the same batch, so a snapshot can never see a page's terms without
// its links, nor an edge in rin/ without it in lnk/). linkIndex is the version
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
// written once: publish puts the records of every id the batch's tf/
// records reach that no batch has carried yet (termsOut upward) into the
// same batch, and advances termsOut only once that batch has published. A
// batch takes its epoch when it publishes, so any later batch naming those
// ids has a later epoch, and snapshots, the fold and crash recovery all
// take an epoch prefix, so whatever holds a tf/ record holds the
// dictionary records it names — with no commit and no lock of their own.
// A publish that fails or panics before its batch publishes leaves
// termsOut alone, and the next batch stages those ids again.

// lnkKey names a page's out-adjacency record in the version store.
func lnkKey(page int64) string { return "lnk/" + strconv.FormatInt(page, 10) }

// rinKey names a page's reverse (in-link) adjacency record.
func rinKey(page int64) string { return "rin/" + strconv.FormatInt(page, 10) }

// linkIndex is the engine's derived-state producer: the mutex under which
// every lnk/ and rin/ record is read and rewritten and every batch is
// published, the dictionary's high-water mark, and the link graph's edge
// count. It only reads the dictionary: the fetch path resolved the page's
// terms to ids before it came here.
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

// linkUpdate is one source's share of a publish: the edges from→targets
// and, for a fetched page, its raw term counts by id.
type linkUpdate struct {
	from    int64
	targets []int64
	tf      *text.Vector
}

// linkPair is one edge of a publish: sources[src]→to.
type linkPair struct {
	src int
	to  int64
}

// publish records a group's updates as one batch: each source's lnk/
// record unioned with its targets, each newly linked target's rin/ record
// with its new sources added, and the dictionary records the batch must
// carry. A source may appear in several updates; each record is read and
// rewritten once. An update's tf, when non-nil, is its page's raw term
// counts by id: the index appends them and their tf/ record rides in the
// same batch (the fetch path), making term and link state snapshot-atomic
// per page; a tf-carrying update always writes its page's lnk/ record
// (even with zero links) so "archived" implies "adjacency known" for
// every snapshot that sees the page. The first tf a source carries counts,
// as the index keeps the first vector of a page.
//
// The edges are flattened to sorted (source, target) pairs before the
// lock. The critical section pins the latest publish, reads the records,
// stages and publishes the batch, advances termsOut once the batch has
// published, and only then releases the lock (see the file comment). A
// store read that fails is returned, with nothing indexed, staged or
// published and no epoch taken: publishing past it would replace a record
// with a subset of its edges, for good. A panic before Publish returns
// leaves the watermark, termsOut and every record as they were. A
// link-only group whose every edge the latest lnk/ records already hold
// returns before taking the lock; edges are never removed, so that read
// needs no lock.
func (li *linkIndex) publish(updates []linkUpdate) error {
	sources := make([]int64, 0, len(updates))
	for _, u := range updates {
		sources = append(sources, u.from)
	}
	sources = canonIDs(sources)
	var pairs []linkPair
	tfBlobs := make([][]byte, len(sources))
	tfs := make([]*text.Vector, len(sources))
	carriesTF := false
	top := int32(-1)
	for _, u := range updates {
		src, _ := slices.BinarySearch(sources, u.from)
		for _, t := range u.targets {
			if t != u.from { // a page does not link to itself
				pairs = append(pairs, linkPair{src, t})
			}
		}
		if u.tf != nil && tfs[src] == nil {
			var pageTop int32
			tfs[src] = u.tf
			tfBlobs[src], pageTop = encodeCounts(*u.tf)
			top, carriesTF = max(top, pageTop), true
		}
	}
	slices.SortFunc(pairs, func(a, b linkPair) int {
		return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.to, b.to))
	})
	pairs = slices.Compact(pairs)
	if !carriesTF && li.known(sources, pairs) {
		return nil
	}

	li.mu.Lock()
	defer li.mu.Unlock()
	sn := li.vs.Acquire()
	defer sn.Release()
	outs := make([][]int64, len(sources))
	for i, from := range sources {
		var err error
		if outs[i], err = readIDs(sn, lnkKey(from)); err != nil {
			return err
		}
	}
	// fresh is the edges no lnk/ record holds yet, in (target, source)
	// order, so each target's new sources are one run.
	var fresh []linkPair
	for _, p := range pairs {
		if _, found := slices.BinarySearch(outs[p.src], p.to); !found {
			fresh = append(fresh, p)
		}
	}
	if len(fresh) == 0 && !carriesTF {
		return nil // nothing new: no epoch, no record churn
	}
	grown := make([]bool, len(sources))
	for _, p := range fresh {
		outs[p.src] = append(outs[p.src], p.to)
		grown[p.src] = true
	}
	slices.SortFunc(fresh, func(a, b linkPair) int {
		return cmp.Or(cmp.Compare(a.to, b.to), cmp.Compare(a.src, b.src))
	})
	var targets []int64
	var ins [][]int64
	for i, p := range fresh {
		if i == 0 || p.to != fresh[i-1].to {
			in, err := readIDs(sn, rinKey(p.to))
			if err != nil {
				return err
			}
			targets, ins = append(targets, p.to), append(ins, in)
		}
		ins[len(ins)-1] = append(ins[len(ins)-1], sources[p.src])
	}
	for i, tf := range tfs {
		if tf != nil {
			li.idx.AddVector(sources[i], *tf)
		}
	}
	b := li.vs.BeginSized(2*len(sources) + len(targets) + max(int(top-li.termsOut+1), 0))
	if top >= li.termsOut {
		terms := li.dict.Terms()
		for id := li.termsOut; id <= top; id++ {
			b.Put(dictKey(id), []byte(terms[id]))
		}
	}
	if li.afterStage != nil {
		li.afterStage()
	}
	for i, from := range sources {
		if tfBlobs[i] != nil {
			b.Put(tfKey(from), tfBlobs[i])
		}
		if grown[i] || tfBlobs[i] != nil {
			b.Put(lnkKey(from), encodeIDSet(outs[i]))
		}
	}
	for i, t := range targets {
		b.Put(rinKey(t), encodeIDSet(ins[i]))
	}
	if err := b.Publish(); err != nil {
		return err
	}
	li.termsOut = max(li.termsOut, top+1)
	li.edges.Add(int64(len(fresh)))
	return nil
}

// known reports whether the latest published lnk/ records already hold
// every pair's edge. A failed read answers false, leaving the error to
// publish's own read.
func (li *linkIndex) known(sources []int64, pairs []linkPair) bool {
	sn := li.vs.Acquire()
	defer sn.Release()
	var outs []int64
	for i, p := range pairs {
		if i == 0 || p.src != pairs[i-1].src {
			var err error
			if outs, err = readIDs(sn, lnkKey(sources[p.src])); err != nil {
				return false
			}
		}
		if _, found := slices.BinarySearch(outs, p.to); !found {
			return false
		}
	}
	return true
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
// "known, no links" from "unknown"). It accepts only what encodeIDSet
// writes, as decodeCounts does: no padded varint, ids strictly increasing
// from 1 (no zero delta), none past MaxInt64, and no trailing byte.
func decodeIDSet(b []byte) ([]int64, bool) {
	n, w := uvarint(b)
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
		d, w := uvarint(b)
		if w <= 0 || d == 0 || d > uint64(math.MaxInt64-prev) {
			return nil, false
		}
		b = b[w:]
		prev += int64(d)
		ids = append(ids, prev)
	}
	if len(b) != 0 {
		return nil, false
	}
	return ids, true
}
