package core

import (
	"bytes"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"memex/internal/events"
	"memex/internal/kvstore"
	"memex/internal/sim"
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
	// The empty set is the empty value: no count, no byte at all.
	if blob := encodeIDSet(nil); len(blob) != 0 {
		t.Fatalf("the empty set encodes to % x, want no byte", blob)
	}
	if !bytes.Equal(encodeIDSet([]int64{1, 300}), []byte{1, 0xab, 0x02}) {
		t.Fatalf("encodeIDSet([1 300]) = % x, want the deltas alone", encodeIDSet([]int64{1, 300}))
	}
	// Truncated payload: the last varint torn.
	blob := encodeIDSet([]int64{1, 300})
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
		if err := e.links.publish([]linkUpdate{{from: refID, targets: []int64{dstID}}}); err != nil {
			t.Fatal(err)
		}
		if got := e.vs.Watermark(); got != wm {
			t.Fatalf("idempotent publish advanced watermark %d→%d", wm, got)
		}
		// The view pinned before is immutable regardless.
		if !slices.Equal(view.Out(refID), outs) {
			t.Fatal("pinned view changed under publish")
		}
	})
}

// TestLinkGraphSurvivesRestart: adjacency published in one life —
// including the frontier of seen-but-unfetched link targets — is read from
// the recovered records in the next, with no network fetches, the same
// edge count, and every page's Out and In as before.
func TestLinkGraphSurvivesRestart(t *testing.T) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 5, TopTopics: 3, SubPerTopic: 2, PagesPerLeaf: 20})
	dir := t.TempDir()
	open := func() *Engine {
		e, err := Open(Config{
			Dir:    dir,
			Source: corpusSource{c},
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
	graph1 := linkGraphOf(t, e1)
	if st1.GraphEdges == 0 || st1.GraphEdges != graph1.edges() {
		t.Fatalf("GraphEdges = %d, the records hold %d edges", st1.GraphEdges, graph1.edges())
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
	if st2.GraphEdges != st1.GraphEdges {
		t.Fatalf("GraphEdges = %d after restart, %d before", st2.GraphEdges, st1.GraphEdges)
	}
	graph1.mustEqual(t, linkGraphOf(t, e2))
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

// newTestStore opens a version store over a fresh kvstore in a temp dir,
// the cold tier the engine's store has; the kvstore closes when the test
// ends.
func newTestStore(t testing.TB) *version.Store {
	t.Helper()
	kv, err := kvstore.Open(t.TempDir(), kvstore.Options{Sync: kvstore.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { kv.Close() })
	vs, err := version.Open(kv, "vc/", version.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

// testView builds a DerivedView over a bare version store — the pinned
// read face the link tests drive without a full engine.
func testView(vs *version.Store) *DerivedView {
	return &DerivedView{vs.Acquire(), text.NewDict(), newRecordCache(decodedCacheBytes)}
}

// TestInLinksMatchEdgeModel is the property check: for a random edge
// stream over pages 1…20 (ids start at 1), a view pinned after any publish
// reads, for every page, the in-links a map of the edges published so far
// gives it — and goes on reading them however many edges are published
// afterwards.
func TestInLinksMatchEdgeModel(t *testing.T) {
	vs := newTestStore(t)
	li := newLinkIndex(vs, text.NewDict(), nil)
	rng := rand.New(rand.NewSource(42))
	const pages = 20
	edges := map[[2]int64]bool{}
	check := func(view *DerivedView, want [][]int64, when string) {
		t.Helper()
		for p := int64(1); p <= pages; p++ {
			if got := view.In(p); !slices.Equal(got, want[p]) {
				t.Fatalf("%s, page %d: view In = %v, model %v", when, p, got, want[p])
			}
		}
	}
	type pinned struct {
		view *DerivedView
		want [][]int64
	}
	var kept []pinned
	for i := 0; i < 400; i++ {
		from, to := 1+int64(rng.Intn(pages)), 1+int64(rng.Intn(pages))
		if err := li.publish([]linkUpdate{{from: from, targets: []int64{to}}}); err != nil {
			t.Fatal(err)
		}
		if from != to {
			edges[[2]int64{from, to}] = true
		}
		want := make([][]int64, pages+1)
		for e := range edges {
			want[e[1]] = append(want[e[1]], e[0])
		}
		for p := range want {
			slices.Sort(want[p])
		}
		view := testView(vs)
		check(view, want, "at its own epoch")
		if i%50 == 0 {
			// A second view of the epoch, first read after later publishes.
			kept = append(kept, pinned{testView(vs), want})
		}
		view.sn.Release()
	}
	if got := li.edges.Load(); got != int64(len(edges)) {
		t.Fatalf("edge count %d, model %d", got, len(edges))
	}
	for _, k := range kept {
		check(k.view, k.want, "after later publishes")
		k.view.sn.Release()
	}
}

// TestHubInLinksNeverOutrunOutLinks is the torn-pair invariant under
// contention: eight publishers add 2 000 distinct sources to one target
// while readers pin views, and in every view the hub's rin/ record lists
// exactly the sources whose lnk/ record that same view can read.
func TestHubInLinksNeverOutrunOutLinks(t *testing.T) {
	const publishers, sources, readers = 8, 2000, 3
	vs := newTestStore(t)
	li := newLinkIndex(vs, text.NewDict(), nil)
	hub := int64(1 << 40)

	check := func() error {
		view := testView(vs)
		defer view.sn.Release()
		in := view.In(hub)
		if !slices.IsSorted(in) {
			return fmt.Errorf("epoch %d: In(hub) not sorted", view.sn.Epoch())
		}
		for src := int64(1); src <= sources; src++ {
			_, listed := slices.BinarySearch(in, src)
			if linked := slices.Contains(view.Out(src), hub); linked != listed {
				return fmt.Errorf("epoch %d: source %d in rin/ = %v, hub in its lnk/ = %v", view.sn.Epoch(), src, listed, linked)
			}
		}
		return nil
	}

	var pubs, reads sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		reads.Add(1)
		go func() {
			defer reads.Done()
			for {
				if err := check(); err != nil {
					errs <- err
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for w := 0; w < publishers; w++ {
		pubs.Add(1)
		go func(w int) {
			defer pubs.Done()
			for src := 1 + w; src <= sources; src += publishers {
				if err := li.publish([]linkUpdate{{from: int64(src), targets: []int64{hub}}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	pubs.Wait()
	close(done)
	reads.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := check(); err != nil {
		t.Fatal(err)
	}
	view := testView(vs)
	defer view.sn.Release()
	if got := len(view.In(hub)); got != sources {
		t.Fatalf("final In(hub) holds %d sources, want %d", got, sources)
	}
}

// TestRinMixedArchiveDecode reads rin/ records as this archive format's
// writer leaves them — the plain id set, and the empty value, which is the
// known-empty set — and two it does not: the same set with a zero delta
// after it (a repeated id) and a torn varint. A record that is not exactly
// encodeIDSet's output reads as unknown, never a panic.
func TestRinMixedArchiveDecode(t *testing.T) {
	vs := newTestStore(t)
	b := vs.BeginSized(0)
	b.Put(rinKey(7), encodeIDSet([]int64{1, 2, 3}))
	b.Put(rinKey(8), append(encodeIDSet([]int64{5, 4}), 0))
	b.Put(rinKey(9), []byte{0xff})
	b.Put(rinKey(10), []byte{})
	if err := b.Publish(); err != nil {
		t.Fatal(err)
	}

	view := testView(vs)
	defer view.sn.Release()
	if got := view.In(7); !slices.Equal(got, []int64{1, 2, 3}) {
		t.Fatalf("plain record In = %v, want [1 2 3]", got)
	}
	if got := view.In(10); got == nil || len(got) != 0 || !view.Has(10) {
		t.Fatalf("empty record In = %v, Has = %v; want known, no links", got, view.Has(10))
	}
	for _, page := range []int64{8, 9} {
		if got := view.In(page); got != nil || view.Has(page) {
			t.Fatalf("page %d: non-canonical record In = %v, Has = %v; want unknown", page, got, view.Has(page))
		}
	}
	if got := view.In(99); got != nil {
		t.Fatalf("unknown page In = %v, want nil", got)
	}
}

// dirBytes reads every file under dir, for before/after comparison.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		files[path] = string(raw)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestLinkRestartPreChunkArchive closes an archive whose every in-list is
// one full rin/ record and checks the second life recovers it with zero
// fetches, reads identical adjacency, and that a new in-link on a recovered
// page leaves one rin/ record holding the old sources and the new one.
func TestLinkRestartPreChunkArchive(t *testing.T) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 9, TopTopics: 3, SubPerTopic: 2, PagesPerLeaf: 20})
	dir := t.TempDir()
	open := func() *Engine {
		e, err := Open(Config{
			Dir:        dir,
			Source:     corpusSource{c},
			GCInterval: -1,
		})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return e
	}

	e1 := open()
	seedEngine(t, e1, c, 8)
	st1 := e1.Status()
	graph1 := linkGraphOf(t, e1)
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
	if st2.GraphEdges != st1.GraphEdges || st1.GraphEdges != graph1.edges() {
		t.Fatalf("GraphEdges = %d after restart, %d before, %d in the records", st2.GraphEdges, st1.GraphEdges, graph1.edges())
	}
	graph1.mustEqual(t, linkGraphOf(t, e2))
	e2.withView(func(view2 *DerivedView) {
		for _, pr := range probes {
			if got := view2.In(pr.page); !slices.Equal(got, pr.in) {
				t.Fatalf("page %d: In diverged across restart: %v, want %v", pr.page, got, pr.in)
			}
		}
	})

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
	const newSrc = int64(1 << 40)
	if err := e2.links.publish([]linkUpdate{{from: newSrc, targets: []int64{hub}}}); err != nil {
		t.Fatal(err)
	}
	e2.withView(func(view3 *DerivedView) {
		want := append(slices.Clone(hubIn), newSrc)
		slices.Sort(want)
		raw, ok := view3.sn.Get(rinKey(hub))
		if !ok {
			t.Fatalf("no rin/ record for page %d after a new in-link", hub)
		}
		if ids, _ := decodeIDSet(raw); !slices.Equal(ids, want) {
			t.Fatalf("rin/%d = %v, want the recovered sources and the new one %v", hub, ids, want)
		}
		if got := view3.In(hub); !slices.Equal(got, want) {
			t.Fatalf("In(%d) = %v, want %v", hub, got, want)
		}
		view3.sn.Range(func(key string, _ []byte) bool {
			if strings.HasPrefix(key, "rinD/") {
				t.Fatalf("second life wrote a delta chunk: %s", key)
			}
			return true
		})
	})
}

// TestBenchWorldInDegrees replays the repository benchmark's world (what
// recall-query preloads) and folds it: the measurement DESIGN.md §4 quotes
// for keeping a page's in-links as one record. It logs the in-degree table
// and the cold record count, and fails the day the world grows hubs — the
// day to measure the O(in-degree) rewrite before trusting it further.
func TestBenchWorldInDegrees(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 8 000 visits")
	}
	e := foldedBenchWorld(t)
	var indeg []int
	var err error
	records, rinBytes := 0, 0
	nodes := map[string]bool{}
	e.withView(func(v *DerivedView) {
		err = v.sn.Range(func(key string, raw []byte) bool {
			records++
			if page, ok := strings.CutPrefix(key, "lnk/"); ok {
				nodes[page] = true
			}
			if strings.HasPrefix(key, "rinD/") {
				t.Errorf("delta chunk %s in a fresh archive", key)
			}
			if page, ok := strings.CutPrefix(key, "rin/"); ok {
				nodes[page] = true
				ids, _ := decodeIDSet(raw)
				indeg = append(indeg, len(ids))
				rinBytes += len(raw)
			}
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(indeg)
	pct := func(p int) int { return indeg[(len(indeg)-1)*p/100] }
	st := e.Status()
	t.Logf("%d graph nodes, %d edges; %d pages with in-links, in-degree p50 %d / p90 %d / p99 %d / max %d; %d cold records, %d rin/ payload bytes",
		len(nodes), st.GraphEdges, len(indeg), pct(50), pct(90), pct(99), pct(100), st.Version.Cold.Records, rinBytes)
	if got := st.Version.Cold.Records; got != int64(records) {
		t.Fatalf("%d cold records for %d live keys: the fold left more than one record a key", got, records)
	}
	if pct(99) >= 1000 {
		t.Fatalf("in-degree p99 is %d: measure what a new in-link costs a hub before keeping rin/ one record (DESIGN.md §4)", pct(99))
	}
}

// foldedBenchWorld replays the benchmark's recall-query preload (8 000
// visits of benchWorld's trace) into a fresh engine and folds it once. The
// fold demon is off, so that one fold is the archive's only one however
// long the replay takes, as in the benchmark's set-up: a fold tick during a
// slow replay (under -race) would write the later rounds into leaves the
// first one filled (DESIGN.md §4 "Split last").
func foldedBenchWorld(t *testing.T) *Engine {
	t.Helper()
	c := webcorpus.Generate(benchWeb)
	tr := sim.Simulate(c, benchSurf)
	tr.Visits = tr.Visits[:8000]
	e, err := Open(Config{
		Dir:        t.TempDir(),
		Source:     corpusSource{c},
		queueSize:  2 * (len(tr.Visits) + len(tr.Bookmarks)),
		GCInterval: -1,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	replayTrace(t, e, c, tr)
	if _, err := e.vs.Fold(); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestBenchWorldDiskPerUserByte holds the archive's size as a number: the
// benchmark's recall-query preload (the world above, 8 000 visits) through
// the engine, closed, and then the file against what is stored in it — key
// and value bytes, by key family. The B+tree's leaves are the overhead: a
// split-only tree leaves them 0.60 full and the file at 1.86 bytes a user
// byte; splitting last (DESIGN.md §4) brought it near 1.4, leaves that
// store their keys' common prefix once, each cell's key length in a byte,
// near 1.2 (DESIGN.md §4, "prefix leaves"), and pages keyed by URL, so a
// leaf of one site's pages stores the site's URL prefix once, near 0.86
// (DESIGN.md §1), derived records that store nothing their decoders can
// infer, near 0.81, and families that only grow written in key order into
// leaves that split at their end, near 0.71 (DESIGN.md §4, "split last").
// What is stored is held too: a tf/ record names its terms by id and
// spends no byte on a count of 1, ≈99 B a record where spelling them took
// ≈490 (DESIGN.md §4, "terms by id"); an adjacency record is its id deltas
// alone, under a key that spells its id as an ordered uint; and a visit is one typed record of ≈20 B
// of key and value, where a generic row, its user index entry and its share
// of the sequence took 107 (DESIGN.md §1). Each bound is the value measured
// over ten runs (the analyzers' race moves the last digit) plus at most 5 %.
func TestBenchWorldDiskPerUserByte(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 8 000 visits")
	}
	e := foldedBenchWorld(t)
	var tfRecords, tfBytes int
	e.withView(func(v *DerivedView) {
		v.sn.Range(func(key string, raw []byte) bool {
			if _, ok := pageOfTFKey(key); ok {
				tfRecords++
				tfBytes += len(raw)
			}
			return true
		})
	})
	t.Logf("%d tf/ records, %d B of values, %.1f B a record; %d terms", tfRecords, tfBytes, float64(tfBytes)/float64(tfRecords), e.dict.Size())
	if per := float64(tfBytes) / float64(tfRecords); per > 104 { // 99.1–99.5
		t.Errorf("tf/ values average %.1f B a record, want at most 104", per)
	}
	work := e.Status().KV
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	kv, err := kvstore.Open(e.cfg.Dir, kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	disk := kv.DiskBytes()
	family, records := map[string]int64{}, map[string]int64{}
	var user int64
	err = kv.Scan(nil, nil, func(k, v []byte) bool {
		family[keyFamily(k)] += int64(len(k) + len(v))
		records[keyFamily(k)]++
		user += int64(len(k) + len(v))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(family))
	for name := range family {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		t.Logf("%-12s %8d B in %6d records, %6.1f B a record", name, family[name], records[name], float64(family[name])/float64(records[name]))
	}
	if records["visits"] != 8000 {
		t.Errorf("%d visits records for 8 000 visits", records["visits"])
	}
	if per := float64(family["visits"]) / float64(records["visits"]); per > 24 {
		t.Errorf("a visits record averages %.1f B of key and value, want at most 24", per)
	}
	for _, c := range []struct {
		family string
		bound  float64
	}{
		{"vc/r/lnk", 23.7}, // 22.6
		{"vc/r/rin", 17.1}, // 16.3
	} {
		if per := float64(family[c.family]) / float64(records[c.family]); per > c.bound {
			t.Errorf("a %s record averages %.1f B of key and value, want at most %.1f", c.family, per, c.bound)
		}
	}
	ratio := float64(disk) / float64(user)
	t.Logf("%d B on disk for %d B of keys and values: %.2f B per user byte; %d leaf splits, %d rebalances",
		disk, user, ratio, work.LeafSplits, work.LeafRebalances)
	if ratio > 0.75 { // 0.70–0.72
		t.Errorf("%.2f bytes of disk per user byte, want at most 0.75", ratio)
	}
	if 10*work.LeafRebalances > 13*work.LeafSplits { // 441–504 for 403–412, at most 1.24 a split
		t.Errorf("%d rebalances for %d splits, want at most 1.3 a split", work.LeafRebalances, work.LeafSplits)
	}
}

// keyFamily names what a store key belongs to: one of the four tables
// (pages, visits, bookmarks, users), the cold tier's records of one kind
// (vc/r/tf, vc/r/lnk, vc/r/rin, vc/r/dict), or else the key's first path
// element.
func keyFamily(k []byte) string {
	s := string(k)
	if kind, ok := strings.CutPrefix(s, "vc/r/"); ok {
		kind, _, _ = strings.Cut(kind, "/")
		return "vc/r/" + kind
	}
	first, _, _ := strings.Cut(s, "/")
	switch first + "/" {
	case pagesPrefix:
		return "pages"
	case visitsPrefix:
		return "visits"
	case bookmarksPrefix:
		return "bookmarks"
	case usersPrefix:
		return "users"
	}
	return first
}
