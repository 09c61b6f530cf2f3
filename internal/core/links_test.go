package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"memex/internal/events"
	"memex/internal/kvstore"
	"memex/internal/text"
	"memex/internal/version"
	"memex/internal/webcorpus"
)

func TestIDSetCodecRoundtrip(t *testing.T) {
	cases := [][]int64{
		nil,
		{},
		{1},
		{42, 7, 42, 7, 9000000000},
		{1, 2, 3, 4, 5},
	}
	want := [][]int64{
		{},
		{},
		{1},
		{7, 42, 9000000000},
		{1, 2, 3, 4, 5},
	}
	for i, in := range cases {
		got, ok := decodeIDSet(encodeIDSet(in))
		if !ok {
			t.Fatalf("case %d: decode failed", i)
		}
		if got == nil {
			t.Fatalf("case %d: decoded nil — callers can't tell known-empty from unknown", i)
		}
		if !slices.Equal(got, want[i]) {
			t.Fatalf("case %d: roundtrip %v, want %v", i, got, want[i])
		}
	}
	if _, ok := decodeIDSet(nil); ok {
		t.Fatal("decoded empty blob")
	}
	// Truncated payload: claims 3 ids, carries 1.
	blob := encodeIDSet([]int64{1, 2, 3})
	if _, ok := decodeIDSet(blob[:2]); ok {
		t.Fatal("decoded truncated blob")
	}
}

// TestLinkPublishViewsAndIdempotence drives the two edge producers — the
// visit referrer path and the fetch out-link path — and checks that a
// pinned view serves both adjacency directions from the published
// records, and that re-publishing a known edge burns no epoch.
func TestLinkPublishViewsAndIdempotence(t *testing.T) {
	c, e := testWorld(t)
	e.RegisterUser(1, "alice")
	var pages []*webcorpus.Page
	for _, pid := range c.LeafPages[c.Leaves()[0].ID] {
		if p := c.Page(pid); !p.Front {
			pages = append(pages, p)
		}
	}
	ref, dst := pages[0], pages[1]
	if err := e.RecordVisit(1, ref.URL, "", tBase, events.Community); err != nil {
		t.Fatal(err)
	}
	if err := e.RecordVisit(1, dst.URL, ref.URL, tBase.Add(time.Minute), events.Community); err != nil {
		t.Fatal(err)
	}
	e.DrainBackground()

	e.mu.RLock()
	refID, dstID := e.idByURL[ref.URL], e.idByURL[dst.URL]
	e.mu.RUnlock()

	e.withView(func(view *DerivedView) {
		if !view.Has(refID) || !view.Has(dstID) {
			t.Fatal("pages missing from the pinned link view")
		}
		if !slices.Contains(view.Out(refID), dstID) {
			t.Fatalf("lnk/%d record lacks referrer edge to %d: %v", refID, dstID, view.Out(refID))
		}
		if !slices.Contains(view.In(dstID), refID) {
			t.Fatalf("rin/%d record lacks reverse edge from %d: %v", dstID, refID, view.In(dstID))
		}
		// The fetch path archived ref's content links too: the record is the
		// union of content out-links and the referral edge, sorted.
		outs := view.Out(refID)
		if !slices.IsSorted(outs) {
			t.Fatalf("adjacency record not sorted: %v", outs)
		}
		if len(outs) < 1+0 { // referral edge at minimum
			t.Fatalf("out record too small: %v", outs)
		}

		// Re-publishing a known edge must not open an epoch (idempotence: a
		// hot revisit loop cannot churn the version store).
		wm := e.vs.Watermark()
		e.links.publish(refID, []int64{dstID}, nil)
		if got := e.vs.Watermark(); got != wm {
			t.Fatalf("idempotent publish advanced watermark %d→%d", wm, got)
		}
		// The view pinned before is immutable regardless.
		if !slices.Equal(view.Out(refID), outs) {
			t.Fatal("pinned view changed under publish")
		}
	})
}

// TestLinkGraphSurvivesRestart is the core-level half of the tentpole
// contract: adjacency published in one life — including the frontier of
// seen-but-unfetched link targets — is rebuilt from recovered records in
// the next, with no network fetches and identical pinned-view reads.
func TestLinkGraphSurvivesRestart(t *testing.T) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 5, TopTopics: 3, SubPerTopic: 2, PagesPerLeaf: 20})
	dir := t.TempDir()
	open := func() *Engine {
		e, err := Open(Config{
			Dir:    dir,
			Source: corpusSource{c},
			KV:     kvstore.Options{Sync: kvstore.SyncNever},
		})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return e
	}

	e1 := open()
	e1.RegisterUser(1, "alice")
	leaf := c.Leaves()[0]
	for i, pid := range c.LeafPages[leaf.ID][:6] {
		p := c.Page(pid)
		if err := e1.RecordVisit(1, p.URL, "", tBase.Add(time.Duration(i)*time.Minute), events.Community); err != nil {
			t.Fatal(err)
		}
	}
	e1.DrainBackground()

	st1 := e1.Status()
	if st1.GraphEdges == 0 || st1.GraphNodes == 0 {
		t.Fatalf("no link graph accumulated: %+v", st1)
	}
	// Snapshot one fetched page's adjacency and the frontier: graph nodes
	// the fetch path has not archived (no tf/ record, only link evidence).
	fetched := map[int64]bool{}
	for _, p := range fetchedPages(e1) {
		fetched[p] = true
	}
	e1.mu.RLock()
	probe := e1.idByURL[c.Page(c.LeafPages[leaf.ID][0]).URL]
	e1.mu.RUnlock()
	var out1, in1 []int64
	e1.withView(func(view1 *DerivedView) {
		out1 = slices.Clone(view1.Out(probe))
		in1 = slices.Clone(view1.In(probe))
	})
	var frontier1 []int64
	for _, p := range out1 {
		if !fetched[p] {
			frontier1 = append(frontier1, p)
		}
	}
	if len(frontier1) == 0 {
		t.Skip("probe page's links all archived; frontier not exercised by this seed")
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := open()
	defer e2.Close()
	st2 := e2.Status()
	if st2.GraphNodes != st1.GraphNodes || st2.GraphEdges != st1.GraphEdges {
		t.Fatalf("restart lost graph: %d/%d nodes, %d/%d edges",
			st2.GraphNodes, st1.GraphNodes, st2.GraphEdges, st1.GraphEdges)
	}
	if st2.PagesFetched != 0 {
		t.Fatalf("restart re-fetched %d pages", st2.PagesFetched)
	}
	e2.withView(func(view2 *DerivedView) {
		if !slices.Equal(view2.Out(probe), out1) || !slices.Equal(view2.In(probe), in1) {
			t.Fatalf("adjacency diverged after restart: out %v→%v in %v→%v",
				out1, view2.Out(probe), in1, view2.In(probe))
		}
		// Every frontier target is still a known graph node with a URL, so a
		// crawl can propose and resolve it without re-fetching its referrer.
		e2.mu.RLock()
		for _, p := range frontier1 {
			if e2.meta[p].url == "" {
				t.Fatalf("frontier page %d lost its URL across restart", p)
			}
			if e2.meta[p].fetched {
				t.Fatalf("frontier page %d spuriously marked fetched", p)
			}
		}
		e2.mu.RUnlock()
		for _, p := range frontier1 {
			if !view2.Has(p) {
				t.Fatalf("frontier page %d missing from recovered link view", p)
			}
		}
	})
}

// testView builds a DerivedView over a bare version store — the pinned
// read face the chunk tests drive without a full engine.
func testView(vs *version.Store) *DerivedView {
	return &DerivedView{
		sn:   vs.Acquire(),
		dict: text.NewDict(),
		tf:   map[int64]map[string]int{},
		vec:  map[int64]text.Vector{},
		out:  map[int64][]int64{},
		in:   map[int64][]int64{},
	}
}

// TestRinChunkScheme drives the chunked in-link records end to end on a
// bare store: the first in-link creates the base record, every later one
// appends a delta chunk, the pinned view merges base+chunks, and
// consolidation folds the generation back into one base (tombstoning the
// chunks) without changing what any view reads — while views pinned
// before the consolidation keep the chunked shape.
func TestRinChunkScheme(t *testing.T) {
	vs := version.NewStore()
	li := newLinkIndex(vs)
	hub := int64(100)
	for src := int64(1); src <= 5; src++ {
		li.publish(src, []int64{hub}, nil)
	}

	view := testView(vs)
	defer view.sn.Release()
	want := []int64{1, 2, 3, 4, 5}
	if got := view.In(hub); !slices.Equal(got, want) {
		t.Fatalf("merged In = %v, want %v", got, want)
	}
	// Record shapes: base from the first edge, one chunk per later edge.
	if raw, ok := view.sn.Get(rinKey(hub)); !ok {
		t.Fatal("no base rin/ record after first in-link")
	} else if ids, _ := decodeIDSet(raw); !slices.Equal(ids, []int64{1}) {
		t.Fatalf("base record = %v, want [1]", ids)
	}
	for seq := 0; seq < 4; seq++ {
		raw, ok := view.sn.Get(rinChunkKey(hub, seq))
		if !ok {
			t.Fatalf("missing chunk seq %d", seq)
		}
		if ids, _ := decodeIDSet(raw); len(ids) != 1 || ids[0] != int64(seq+2) {
			t.Fatalf("chunk %d = %v, want [%d]", seq, ids, seq+2)
		}
	}
	if _, ok := view.sn.Get(rinChunkKey(hub, 4)); ok {
		t.Fatal("phantom chunk past the generation")
	}
	if got := li.pendingChunks(); got != 4 {
		t.Fatalf("pendingChunks = %d, want 4", got)
	}

	// Consolidate: one base, no live chunks, identical merged reads.
	if n := li.consolidate(1); n != 1 {
		t.Fatalf("consolidate folded %d pages, want 1", n)
	}
	after := testView(vs)
	defer after.sn.Release()
	if got := after.In(hub); !slices.Equal(got, want) {
		t.Fatalf("In after consolidation = %v, want %v", got, want)
	}
	if raw, ok := after.sn.Get(rinKey(hub)); !ok {
		t.Fatal("no base record after consolidation")
	} else if ids, _ := decodeIDSet(raw); !slices.Equal(ids, want) {
		t.Fatalf("consolidated base = %v, want %v", ids, want)
	} else if _, start, ok := decodeIDSetStart(raw); !ok || start != 4 {
		t.Fatalf("consolidated base startSeq = %d (ok=%v), want 4", start, ok)
	}
	if _, ok := after.sn.Get(rinChunkKey(hub, 0)); ok {
		t.Fatal("chunk survived consolidation")
	}
	if got := li.pendingChunks(); got != 0 {
		t.Fatalf("pendingChunks after consolidation = %d, want 0", got)
	}
	// The view pinned before consolidation still sees the chunked shape.
	if _, ok := view.sn.Get(rinChunkKey(hub, 0)); !ok {
		t.Fatal("pre-consolidation view lost its chunks")
	}

	// Chunk seqs are monotone per page: the next generation continues at
	// seq 4 (where the folded one left off) and merges on top of the base,
	// whose persisted startSeq tells readers where live chunks begin.
	li.publish(6, []int64{hub}, nil)
	gen2 := testView(vs)
	defer gen2.sn.Release()
	if got := gen2.In(hub); !slices.Equal(got, []int64{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("In after new generation = %v", got)
	}
	if _, ok := gen2.sn.Get(rinChunkKey(hub, 0)); ok {
		t.Fatal("new generation reused a folded chunk seq")
	}
	if raw, ok := gen2.sn.Get(rinChunkKey(hub, 4)); !ok {
		t.Fatal("new generation's first chunk not at seq 4")
	} else if ids, _ := decodeIDSet(raw); !slices.Equal(ids, []int64{6}) {
		t.Fatalf("new generation chunk = %v, want [6]", ids)
	}
}

// TestRinChunkMergeMatchesAuthority is the property check: for a random
// edge stream, the pinned view's merged base+chunk in-adjacency must
// equal the producer-side authority graph's, for every target, with and
// without interleaved consolidation.
func TestRinChunkMergeMatchesAuthority(t *testing.T) {
	vs := version.NewStore()
	li := newLinkIndex(vs)
	rng := rand.New(rand.NewSource(42))
	const pages = 20
	for i := 0; i < 400; i++ {
		from := int64(rng.Intn(pages))
		to := int64(rng.Intn(pages))
		li.publish(from, []int64{to}, nil)
		if i%97 == 0 {
			li.consolidate(2)
		}
	}
	view := testView(vs)
	defer view.sn.Release()
	for p := int64(0); p < pages; p++ {
		want := li.g.In(p)
		slices.Sort(want)
		got := view.In(p)
		if len(want) == 0 {
			// Never linked-to: the view may know it (empty) or not (nil).
			if len(got) != 0 {
				t.Fatalf("page %d: view has in-links %v, authority none", p, got)
			}
			continue
		}
		if !slices.Equal(got, want) {
			t.Fatalf("page %d: view In = %v, authority %v", p, got, want)
		}
	}
}

// TestRinMixedArchiveDecode crafts records the way three different
// "generations" of the codebase would have written them — a pre-chunk
// full rin/ record, delta chunks on top of it, and a chunk-only page with
// no base — plus a corrupt chunk in the middle of a chain, and checks the
// merge handles all of them.
func TestRinMixedArchiveDecode(t *testing.T) {
	vs := version.NewStore()

	b := vs.Begin()
	// Page 7: legacy full record, as PR-4 code wrote it.
	b.Put(rinKey(7), encodeIDSet([]int64{1, 2, 3}))
	// Page 8: chunks with no base (defensive: the writer never produces
	// this, but the reader must not depend on that).
	b.Put(rinChunkKey(8, 0), encodeIDSet([]int64{5}))
	b.Put(rinChunkKey(8, 1), encodeIDSet([]int64{4}))
	if err := b.Publish(); err != nil {
		t.Fatal(err)
	}
	// Page 7 gains post-migration chunks — seq 1 corrupt.
	b2 := vs.Begin()
	b2.Put(rinChunkKey(7, 0), encodeIDSet([]int64{9}))     //memexvet:ignore epochbatch this batch models a later epoch: post-migration chunks legitimately arrive after the legacy record
	b2.Put(rinChunkKey(7, 1), []byte{0xff})                //memexvet:ignore epochbatch same staged migration scenario: the corrupt chunk under test
	b2.Put(rinChunkKey(7, 2), encodeIDSet([]int64{2, 11})) //memexvet:ignore epochbatch same staged migration scenario: the chunk past the corruption
	if err := b2.Publish(); err != nil {
		t.Fatal(err)
	}

	view := testView(vs)
	defer view.sn.Release()
	if got := view.In(7); !slices.Equal(got, []int64{1, 2, 3, 9, 11}) {
		t.Fatalf("mixed base+chunks In = %v, want [1 2 3 9 11]", got)
	}
	if got := view.In(8); !slices.Equal(got, []int64{4, 5}) {
		t.Fatalf("chunk-only In = %v, want [4 5]", got)
	}
	if !view.Has(8) {
		t.Fatal("chunk-only page not Has()")
	}
	// Unknown page stays nil.
	if got := view.In(99); got != nil {
		t.Fatalf("unknown page In = %v, want nil", got)
	}
}

// TestLinkRestartChunkedArchive closes an engine while delta chunks are
// still live (chains under the consolidation threshold survive shutdown
// chunked), reopens it, and proves the next life resumes each page's
// chunk seq past the recovered generation: a new in-link must append,
// not overwrite — an overwrite would shadow a recovered chunk's edge out
// of every later view.
func TestLinkRestartChunkedArchive(t *testing.T) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 7, TopTopics: 3, SubPerTopic: 2, PagesPerLeaf: 20})
	dir := t.TempDir()
	open := func() *Engine {
		e, err := Open(Config{
			Dir:    dir,
			Source: corpusSource{c},
			KV:     kvstore.Options{Sync: kvstore.SyncNever},
			// Keep the GC demon from consolidating mid-test.
			VersionGCInterval: -1,
		})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return e
	}

	e1 := open()
	e1.RegisterUser(1, "alice")
	for i, pid := range c.LeafPages[c.Leaves()[0].ID][:8] {
		p := c.Page(pid)
		if err := e1.RecordVisit(1, p.URL, "", tBase.Add(time.Duration(i)*time.Minute), events.Community); err != nil {
			t.Fatal(err)
		}
	}
	e1.DrainBackground()

	// Pick a target that will still hold live chunks after Close (Close
	// consolidates only chains at or past the threshold).
	e1.links.mu.Lock()
	var target int64
	var nChunks int
	for p, n := range e1.links.chunks {
		if n >= 1 && n < rinConsolidateThreshold && n > nChunks {
			target, nChunks = p, n
		}
	}
	e1.links.mu.Unlock()
	if nChunks == 0 {
		t.Skip("corpus seed produced no under-threshold chunk chains")
	}
	var in1 []int64
	e1.withView(func(view1 *DerivedView) { in1 = slices.Clone(view1.In(target)) })
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := open()
	defer e2.Close()
	if got := e2.Status().PagesFetched; got != 0 {
		t.Fatalf("restart re-fetched %d pages", got)
	}
	e2.withView(func(view2 *DerivedView) {
		if got := view2.In(target); !slices.Equal(got, in1) {
			t.Fatalf("recovered In = %v, want %v", got, in1)
		}
	})
	// The recovered seq counters must sit above the live chunks.
	e2.links.mu.Lock()
	resumed := e2.links.chunks[target]
	e2.links.mu.Unlock()
	if resumed != nChunks {
		t.Fatalf("chunk seq resumed at %d, want %d", resumed, nChunks)
	}

	// Append a new in-link in the second life: the union must grow by
	// exactly the new source — losing any element means the new chunk
	// overwrote a recovered one.
	const newSrc = int64(1 << 40)
	e2.links.publish(newSrc, []int64{target}, nil)
	e2.withView(func(view3 *DerivedView) {
		want := append(slices.Clone(in1), newSrc)
		slices.Sort(want)
		if got := view3.In(target); !slices.Equal(got, want) {
			t.Fatalf("In after second-life append = %v, want %v", got, want)
		}
	})
}

// TestLinkRestartPreChunkArchive reopens an archive shaped exactly like
// one written before delta chunks existed — every page's in-links in one
// full rin/ record, zero chunks (produced by consolidating everything
// down before close) — and checks the second life recovers it with zero
// fetches, reads identical adjacency, and starts chunking on top of the
// legacy bases.
func TestLinkRestartPreChunkArchive(t *testing.T) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 9, TopTopics: 3, SubPerTopic: 2, PagesPerLeaf: 20})
	dir := t.TempDir()
	open := func() *Engine {
		e, err := Open(Config{
			Dir:               dir,
			Source:            corpusSource{c},
			KV:                kvstore.Options{Sync: kvstore.SyncNever},
			VersionGCInterval: -1,
		})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return e
	}

	e1 := open()
	e1.RegisterUser(1, "alice")
	for i, pid := range c.LeafPages[c.Leaves()[0].ID][:8] {
		p := c.Page(pid)
		if err := e1.RecordVisit(1, p.URL, "", tBase.Add(time.Duration(i)*time.Minute), events.Community); err != nil {
			t.Fatal(err)
		}
	}
	e1.DrainBackground()
	// Flatten every chunk chain into its base: the archive on disk now
	// holds only full rin/ records, indistinguishable from a pre-chunk
	// writer's output.
	e1.links.consolidate(1)
	if got := e1.links.pendingChunks(); got != 0 {
		t.Fatalf("%d chunks survived full consolidation", got)
	}
	st1 := e1.Status()
	type probe struct {
		page int64
		in   []int64
	}
	var probes []probe
	e1.withView(func(view1 *DerivedView) {
		for _, p := range fetchedPages(e1) {
			probes = append(probes, probe{p, slices.Clone(view1.In(p))})
		}
	})
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := open()
	defer e2.Close()
	st2 := e2.Status()
	if st2.PagesFetched != 0 {
		t.Fatalf("second life fetched %d pages from a full-record archive", st2.PagesFetched)
	}
	if st2.GraphNodes != st1.GraphNodes || st2.GraphEdges != st1.GraphEdges {
		t.Fatalf("restart lost graph: %d/%d nodes, %d/%d edges",
			st2.GraphNodes, st1.GraphNodes, st2.GraphEdges, st1.GraphEdges)
	}
	if got := e2.links.pendingChunks(); got != 0 {
		t.Fatalf("phantom chunk counters (%d) recovered from a chunk-free archive", got)
	}
	e2.withView(func(view2 *DerivedView) {
		for _, pr := range probes {
			if got := view2.In(pr.page); !slices.Equal(got, pr.in) {
				t.Fatalf("page %d: In diverged across restart: %v, want %v", pr.page, got, pr.in)
			}
		}
	})

	// New edges on top of a recovered base start a chunk generation at the
	// base's persisted startSeq (0 for a truly legacy suffix-free record,
	// the folded-chunk count for one written by consolidation — seqs are
	// monotone per page and never reused).
	var hub int64
	var hubIn []int64
	for _, pr := range probes {
		if len(pr.in) > 0 {
			hub, hubIn = pr.page, pr.in
			break
		}
	}
	if hubIn == nil {
		t.Fatal("no page with in-links to probe")
	}
	var wantSeq int
	e2.withView(func(view2b *DerivedView) {
		if raw, ok := view2b.sn.Get(rinKey(hub)); ok {
			if _, s, ok := decodeIDSetStart(raw); ok {
				wantSeq = s
			}
		}
	})
	const newSrc = int64(1 << 40)
	e2.links.publish(newSrc, []int64{hub}, nil)
	e2.withView(func(view3 *DerivedView) {
		if raw, ok := view3.sn.Get(rinChunkKey(hub, wantSeq)); !ok {
			t.Fatalf("new edge on recovered base did not start a chunk generation at seq %d", wantSeq)
		} else if ids, _ := decodeIDSet(raw); !slices.Equal(ids, []int64{newSrc}) {
			t.Fatalf("first chunk = %v, want [%d]", ids, newSrc)
		}
		want := append(slices.Clone(hubIn), newSrc)
		slices.Sort(want)
		if got := view3.In(hub); !slices.Equal(got, want) {
			t.Fatalf("legacy-base merge = %v, want %v", got, want)
		}
	})
}
