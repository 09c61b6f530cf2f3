package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"memex/internal/events"
	"memex/internal/text"
	"memex/internal/version"
)

func TestCountsCodecRoundTrip(t *testing.T) {
	d := text.NewDict()
	d.ID("interned-before")
	cases := []map[string]int{
		nil,
		{},
		{"a": 1},
		{"term": 3, "другой": 7, "": 12, "long-term-with-dashes": 1 << 30, "interned-before": 2},
	}
	for _, counts := range cases {
		tf := text.VectorFromCounts(d, counts)
		blob, top := encodeCounts(tf)
		got := decodeCounts(d, blob)
		if got.IDs == nil {
			t.Fatalf("roundtrip(%v) failed: %v", counts, got)
		}
		if !reflect.DeepEqual(got, tf) {
			t.Fatalf("roundtrip(%v) = %v, want %v", counts, got, tf)
		}
		want := int32(-1)
		for term := range counts {
			want = max(want, d.ID(term))
		}
		if top != want {
			t.Fatalf("encodeCounts(%v) top = %d, want the largest id %d", counts, top, want)
		}
	}
	// The ids are the dictionary's: "interned-before" is id 0, and "term"
	// follows at its own id, as a delta from 0.
	blob, _ := encodeCounts(text.VectorFromCounts(d, map[string]int{"interned-before": 4, "term": 1}))
	if termID := d.ID("term"); !bytes.Equal(blob, []byte{2, 0, 4, byte(termID), 1}) {
		t.Fatalf("blob % x, want n, then (id delta, count) pairs in id order", blob)
	}
	for name, bad := range map[string][]byte{
		"corrupt header":        {0xff},
		"truncated":             {2, 1, 1},
		"repeated id":           {2, 1, 1, 0, 1},
		"id past dictionary":    append(binary.AppendUvarint([]byte{1}, uint64(d.Size())), 1),
		"delta wraps past 2^64": {2, 1, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1},
		"padded varint":         {1, 0x81, 0x00, 1},
		"trailing byte":         {1, 1, 1, 0},
		"count past maxCount":   binary.AppendUvarint([]byte{1, 0}, maxCount+1),
	} {
		if tf := decodeCounts(d, bad); tf.IDs != nil {
			t.Errorf("%s: % x decoded to %v", name, bad, tf)
		}
	}
}

// TestCountsDecodeBoundsAllocation: a corrupt record whose header claims
// ~2^60 entries must fail to decode instead of sizing slices for it —
// every entry takes at least two bytes, so n ≤ len(payload)/2 (a single
// flipped cold-tier byte is enough to produce such a header).
func TestCountsDecodeBoundsAllocation(t *testing.T) {
	d := text.NewDict()
	d.ID("a")
	d.ID("b")
	huge := binary.AppendUvarint(nil, 1<<60)
	if decodeCounts(d, huge).IDs != nil {
		t.Fatal("decoded a 2^60-entry claim")
	}
	// Same header followed by a plausible-looking entry.
	if decodeCounts(d, append(huge, 0, 1)).IDs != nil {
		t.Fatal("decoded an impossible count with payload")
	}
	// Two entries claimed, three bytes of payload: over the bound.
	if decodeCounts(d, []byte{2, 0, 1, 1}).IDs != nil {
		t.Fatal("decoded two entries from three bytes")
	}
	// The bound must not reject genuine records whose entries take exactly
	// two bytes each.
	want := text.Vector{IDs: []int32{0, 1}, Weights: []float64{7, 9}}
	if tf := decodeCounts(d, []byte{2, 0, 7, 1, 9}); !reflect.DeepEqual(tf, want) {
		t.Fatalf("rejected minimal valid record: %v", tf)
	}
}

// TestCountsEncodeDeterministic: equal counts must encode to
// byte-identical blobs whatever order they were counted in — the
// record-level half of the determinism guarantee (identical archives
// produce identical cold tiers; re-publishing unchanged counts cannot
// churn the store with spurious rewrites).
func TestCountsEncodeDeterministic(t *testing.T) {
	d := text.NewDict()
	tf := map[string]int{}
	for i := 0; i < 200; i++ {
		tf[fmt.Sprintf("term-%03d", i)] = i + 1
	}
	// A second map with the same content, built in reverse.
	tf2 := map[string]int{}
	for i := 199; i >= 0; i-- {
		tf2[fmt.Sprintf("term-%03d", i)] = i + 1
	}
	want, _ := encodeCounts(text.VectorFromCounts(d, tf))
	for i := 0; i < 20; i++ {
		if got, _ := encodeCounts(text.VectorFromCounts(d, tf)); !bytes.Equal(got, want) {
			t.Fatal("same counts encoded differently across calls")
		}
		if got, _ := encodeCounts(text.VectorFromCounts(d, tf2)); !bytes.Equal(got, want) {
			t.Fatal("equal counts encoded differently")
		}
	}
	if got := decodeCounts(d, want); !reflect.DeepEqual(got, text.VectorFromCounts(d, tf)) {
		t.Fatal("sorted encoding broke the round trip")
	}
}

// bench56 is a 56-term record over a 1 528-term vocabulary — the
// benchmark world's average record (DESIGN.md §4, "terms by id").
func bench56() (*text.Dict, text.Vector) {
	d := text.NewDict()
	for i := 0; i < 1528; i++ {
		d.ID(fmt.Sprintf("vocab%04d", i))
	}
	tf := map[string]int{}
	for i := 0; i < 56; i++ {
		tf[fmt.Sprintf("vocab%04d", (i*173)%1528)] = 1 + i%5
	}
	return d, text.VectorFromCounts(d, tf)
}

// TestDecodeCountsAllocations: decoding a record allocates its two slices
// and nothing per term — no string is touched.
func TestDecodeCountsAllocations(t *testing.T) {
	d, tf := bench56()
	blob, _ := encodeCounts(tf)
	if allocs := testing.AllocsPerRun(100, func() { decodeCounts(d, blob) }); allocs > 2 {
		t.Fatalf("decoding a 56-term record allocates %.0f times, want at most 2", allocs)
	}
}

func BenchmarkEncodeCounts(b *testing.B) {
	_, tf := bench56()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		encodeCounts(tf)
	}
}

func BenchmarkDecodeCounts(b *testing.B) {
	d, tf := bench56()
	blob, _ := encodeCounts(tf)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		decodeCounts(d, blob)
	}
}

// TestVectorDerivedFromCounts: a page's term vector is its term-count
// record, decoded: the ids the fetch path resolved and the counts as
// weights, equal to counting the source text by string and resolving the
// strings in the shared dictionary.
func TestVectorDerivedFromCounts(t *testing.T) {
	c, e := testWorld(t)
	e.RegisterUser(1, "alice")
	p := c.Page(c.LeafPages[c.Leaves()[0].ID][1])
	if err := e.RecordVisit(1, p.URL, "", tBase, events.Community); err != nil {
		t.Fatal(err)
	}
	e.DrainBackground()

	e.withView(func(view *DerivedView) {
		id := e.idByURL[p.URL]
		got := view.TermCounts(id)
		if got.IDs == nil {
			t.Fatal("no term counts for fetched page")
		}
		want := text.VectorFromCounts(e.dict, text.TermCounts(p.Title+" "+p.Text))
		if !reflect.DeepEqual(got.IDs, want.IDs) || !reflect.DeepEqual(got.Weights, want.Weights) {
			t.Fatal("decoded counts diverge from fetch-path computation")
		}
		// And it memoizes: a second read returns the identical value.
		again := view.TermCounts(id)
		if !reflect.DeepEqual(again, got) {
			t.Fatal("memoized counts changed between reads")
		}
	})
}

// TestDerivedViewConsistency: a pinned view must keep serving the state
// it was acquired at — pages fetched afterwards are invisible to
// snapshot-backed reads but reachable through fresh views.
func TestDerivedViewConsistency(t *testing.T) {
	c, e := testWorld(t)
	e.RegisterUser(1, "alice")
	pages := c.LeafPages[c.Leaves()[0].ID]

	p0 := c.Page(pages[0])
	if err := e.RecordVisit(1, p0.URL, "", tBase, events.Community); err != nil {
		t.Fatal(err)
	}
	e.DrainBackground()

	e.withView(func(view *DerivedView) {
		id0 := e.idByURL[p0.URL]
		if view.TermCounts(id0).Len() == 0 {
			t.Fatal("view missing fetched page's term counts")
		}

		// Fetch a second page after the view was pinned.
		p1 := c.Page(pages[1])
		if err := e.RecordVisit(1, p1.URL, "", tBase.Add(time.Minute), events.Community); err != nil {
			t.Fatal(err)
		}
		e.DrainBackground()
		id1 := e.idByURL[p1.URL]

		// The pinned view must not see the later page — repeatable reads:
		// a page fetched mid-pass stays invisible for the whole pass instead
		// of flipping from unclassifiable to classifiable between two reads.
		if _, ok := view.sn.Get(tfKey(id1)); ok {
			t.Fatal("pinned view's snapshot observed a later publish")
		}
		if view.TermCounts(id1).IDs != nil {
			t.Fatal("pinned view resolved a post-snapshot page")
		}

		e.withView(func(fresh *DerivedView) {
			if _, ok := fresh.sn.Get(tfKey(id1)); !ok {
				t.Fatal("fresh view missing the second page")
			}
			if fresh.sn.Epoch() <= view.sn.Epoch() {
				t.Fatalf("epochs did not advance: %d then %d", view.sn.Epoch(), fresh.sn.Epoch())
			}
		})
	})
}

// TestViewDiesWithItsScope: the pin is a scope, not a value. A view
// smuggled out of withView panics from every accessor — also for a page
// it had memoised, where a released pin used to keep answering from the
// memo and the shared cache — and a closure that panics leaves no pin.
func TestViewDiesWithItsScope(t *testing.T) {
	c, e := testWorld(t)
	e.RegisterUser(1, "alice")
	p := c.Page(c.LeafPages[c.Leaves()[0].ID][0])
	if err := e.RecordVisit(1, p.URL, "", tBase, events.Community); err != nil {
		t.Fatal(err)
	}
	e.DrainBackground()
	id := e.idByURL[p.URL]

	var escaped *DerivedView
	e.withView(func(view *DerivedView) {
		if view.TermCounts(id).IDs == nil || !view.Has(id) {
			t.Fatal("view missing the fetched page")
		}
		view.In(id)
		escaped = view
	})
	for name, read := range map[string]func(page int64){
		"TermCounts": func(page int64) { escaped.TermCounts(page) },
		"Out":        func(page int64) { escaped.Out(page) },
		"In":         func(page int64) { escaped.In(page) },
		"Has":        func(page int64) { escaped.Has(page) },
	} {
		for _, page := range []int64{id, id + 1000} { // memoised, never read
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%d) answered after the view's scope ended", name, page)
					}
				}()
				read(page)
			}()
		}
	}

	func() {
		defer func() { recover() }()
		e.withView(func(*DerivedView) { panic("pass failed") })
	}()
	if pinned := e.Status().Version.Pinned; pinned != 0 {
		t.Fatalf("Pinned = %d after a panicking closure, want 0", pinned)
	}
}

// TestDerivedPublishMatchesSource: the version store is the single home
// of derived page data now, so the published records must decode to
// exactly the term counts the source content counts to, resolved in the
// shared dictionary. (Before the live pageTF/pageVec maps were retired this
// compared against those; the source recomputation is the same oracle
// without resurrecting a second copy.)
func TestDerivedPublishMatchesSource(t *testing.T) {
	c, e := testWorld(t)
	e.RegisterUser(1, "alice")
	pages := c.LeafPages[c.Leaves()[0].ID][:5]
	for i, pid := range pages {
		p := c.Page(pid)
		if err := e.RecordVisit(1, p.URL, "", tBase.Add(time.Duration(i)*time.Minute), events.Community); err != nil {
			t.Fatal(err)
		}
	}
	e.DrainBackground()

	e.withView(func(view *DerivedView) {
		checked := 0
		for _, pid := range pages {
			p := c.Page(pid)
			e.mu.RLock()
			id, ok := e.idByURL[p.URL]
			e.mu.RUnlock()
			if !ok {
				t.Fatalf("page %q never registered", p.URL)
			}
			// Resolve the source's terms by interning them: a term the fetch
			// path dropped, and so never put in the dictionary, gets a fresh
			// id here that the record lacks, and the comparison fails.
			want := text.VectorFromCounts(e.dict, text.TermCounts(p.Title+" "+p.Text))
			if got := view.TermCounts(id); !reflect.DeepEqual(got, want) {
				t.Fatalf("page %d: snapshot tf diverges from source content", id)
			}
			checked++
		}
		if checked == 0 {
			t.Fatal("no fetched pages")
		}
	})
}

// TestStatusReportsVersionStore: the engine surfaces version-store
// health (watermark advancing with fetches, the chain inside the tier
// bound whatever the gc tick does, fold accounting) in Status.
func TestStatusReportsVersionStore(t *testing.T) {
	c, e := testWorld(t)
	e.RegisterUser(1, "alice")
	for i, pid := range c.LeafPages[c.Leaves()[0].ID][:4] {
		p := c.Page(pid)
		if err := e.RecordVisit(1, p.URL, "", tBase.Add(time.Duration(i)*time.Minute), events.Community); err != nil {
			t.Fatal(err)
		}
	}
	e.DrainBackground()
	st := e.Status()
	if st.Version.Watermark == 0 {
		t.Fatal("version watermark did not advance with fetches")
	}
	if st.Version.Entries == 0 {
		t.Fatal("version store holds no derived entries")
	}
	// Four pages are far below the fold threshold: the tick leaves them in
	// memory, where Publish keeps every chain a base-16 counter.
	if n := e.vs.GC(); n != 0 {
		t.Fatalf("gc tick below the fold threshold reclaimed %d entries", n)
	}
	if st = e.Status(); st.Version.Layers == 0 || st.Version.Layers > 15 {
		t.Fatalf("Layers after the gc tick = %d, want 1..15 (one base-16 digit)", st.Version.Layers)
	}
	if _, err := e.vs.Fold(); err != nil {
		t.Fatal(err)
	}
	st = e.Status()
	if st.Version.Layers != 0 || st.Version.Cold.Records == 0 || st.Version.Cold.FoldErrors != 0 {
		t.Fatalf("after a fold: %d layers, cold %+v", st.Version.Layers, st.Version.Cold)
	}
}

// TestStatusReportsFailedFold: a fold round that fails is not silent — the
// gc tick discards the error, so Status is where an operator finds it — and
// costs nothing but memory: every record stays readable and the next round
// folds it.
func TestStatusReportsFailedFold(t *testing.T) {
	c, e := testWorld(t)
	e.RegisterUser(1, "alice")
	p := c.Page(c.LeafPages[c.Leaves()[0].ID][0])
	if err := e.RecordVisit(1, p.URL, "", tBase, events.Community); err != nil {
		t.Fatal(err)
	}
	e.DrainBackground()
	e.vs.SetFoldHook(func(version.FoldPoint) error { return errors.New("disk full") })
	if _, err := e.vs.Fold(); err == nil {
		t.Fatal("Fold succeeded through a failing hook")
	}
	e.vs.SetFoldHook(nil)
	cold := e.Status().Version.Cold
	if cold.FoldErrors != 1 || cold.LastFoldError != "disk full" {
		t.Fatalf("after a failed fold: FoldErrors = %d, LastFoldError = %q", cold.FoldErrors, cold.LastFoldError)
	}
	e.withView(func(v *DerivedView) {
		for _, pg := range fetchedPages(e) {
			if v.TermCounts(pg).Len() == 0 {
				t.Fatalf("page %d lost its term counts to the failed fold", pg)
			}
		}
	})
	if _, err := e.vs.Fold(); err != nil {
		t.Fatal(err)
	}
	if st := e.Status().Version; st.Entries != 0 || st.Cold.FoldErrors != 1 {
		t.Fatalf("after the next fold: %d entries resident, FoldErrors = %d", st.Entries, st.Cold.FoldErrors)
	}
}

// TestUsageAndProfileUnderLiveIngest drives the §1 read paths (usage
// breakdown, profiles) while ingest keeps publishing from the analyzer
// demons — the consumer side of E9 inside the real engine. It must never
// race (run with -race) and the snapshot-backed reads must keep working
// throughout.
func TestUsageAndProfileUnderLiveIngest(t *testing.T) {
	c, e := testWorld(t)
	e.RegisterUser(1, "alice")
	leaves := c.Leaves()
	warm := c.LeafPages[leaves[0].ID]
	for i := 0; i < 6; i++ {
		p := c.Page(warm[i])
		if err := e.RecordVisit(1, p.URL, "", tBase.Add(time.Duration(i)*time.Minute), events.Community); err != nil {
			t.Fatal(err)
		}
		if err := e.AddBookmark(1, p.URL, "/topic-a", tBase.Add(time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		p := c.Page(c.LeafPages[leaves[1].ID][i])
		if err := e.AddBookmark(1, p.URL, "/topic-b", tBase.Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	e.DrainBackground()
	e.RetrainClassifiers()
	e.RebuildThemes()

	// Keep ingest busy in the background while querying.
	done := make(chan struct{})
	go func() {
		defer close(done)
		at := tBase.Add(2 * time.Hour)
		n := 0
		for _, leaf := range leaves {
			for _, pid := range c.LeafPages[leaf.ID] {
				e.RecordVisit(1, c.Page(pid).URL, "", at.Add(time.Duration(n)*time.Second), events.Community)
				n++
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if slices := e.UsageBreakdown(1, time.Time{}); len(slices) == 0 {
			t.Fatal("UsageBreakdown empty during ingest")
		}
		if p := e.Profile(1); p == nil {
			t.Fatal("Profile nil during ingest")
		}
	}
	<-done
	e.DrainBackground()

	slices := e.UsageBreakdown(1, time.Time{})
	total := 0.0
	for _, s := range slices {
		total += s.Share
	}
	if total < 0.99 || total > 1.01 {
		t.Fatalf("usage shares sum to %f", total)
	}
}

// TestSnapshotConsistencyUnderLoad is the regression test for retiring
// the live pageTF/pageVec maps: with the version store as the single
// home of derived page data, theme rebuilds and profile computations run
// concurrently with live ingest, and every pinned view must (a) never
// observe a torn tf/vec pair — both records publish as one batch — and
// (b) give repeatable reads for the lifetime of the view. Run with
// -race (CI does).
func TestSnapshotConsistencyUnderLoad(t *testing.T) {
	c, e := testWorld(t)
	e.RegisterUser(1, "alice")
	leaves := c.Leaves()

	// Warm up two folders (classifier + theme input) and a few visits
	// (profile visibility) so every analyzer pass has stable input before
	// the concurrent phase begins.
	for i := 0; i < 6; i++ {
		p := c.Page(c.LeafPages[leaves[0].ID][i])
		if err := e.AddBookmark(1, p.URL, "/topic-a", tBase.Add(time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
		if err := e.RecordVisit(1, p.URL, "", tBase.Add(time.Duration(i)*time.Minute), events.Community); err != nil {
			t.Fatal(err)
		}
		q := c.Page(c.LeafPages[leaves[1].ID][i])
		if err := e.AddBookmark(1, q.URL, "/topic-b", tBase.Add(time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	e.DrainBackground()
	e.RetrainClassifiers()
	e.RebuildThemes()

	// Register ids for every page we will ingest, so the checkers can
	// probe pages before, during, and after their fetch publishes.
	var ids []int64
	var urls []string
	for _, leaf := range leaves[:4] {
		for _, pid := range c.LeafPages[leaf.ID] {
			url := c.Page(pid).URL
			id, err := e.ensurePage(url)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
			urls = append(urls, url)
		}
	}

	stop := make(chan struct{})
	errCh := make(chan error, 8)
	report := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}
	var wg sync.WaitGroup

	// Live ingest: visit (and thereby fetch/publish) every page.
	ingestDone := make(chan struct{})
	go func() {
		defer close(ingestDone)
		at := tBase.Add(2 * time.Hour)
		for i, url := range urls {
			e.RecordVisit(1, url, "", at.Add(time.Duration(i)*time.Second), events.Community)
		}
	}()

	// Analyzer passes that rebuild themes and profiles mid-ingest.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if st := e.RebuildThemes(); st.Themes == 0 {
				report(fmt.Errorf("RebuildThemes lost all themes mid-ingest"))
				return
			}
			if p := e.Profile(1); p == nil {
				report(fmt.Errorf("Profile nil mid-ingest"))
				return
			}
		}
	}()

	// Snapshot checkers: repeatable raw reads, and the decoded term counts
	// must agree with the raw record — a page is either fully visible to a
	// view or fully absent, never half-derived.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e.withView(func(view *DerivedView) {
					for _, id := range ids {
						rawTF, okTF := view.sn.Get(tfKey(id))
						rawTF2, okTF2 := view.sn.Get(tfKey(id))
						if okTF != okTF2 || !bytes.Equal(rawTF, rawTF2) {
							report(fmt.Errorf("page %d: non-repeatable read within pinned view at epoch %d",
								id, view.sn.Epoch()))
						}
						if got := view.TermCounts(id).IDs != nil; got != okTF {
							report(fmt.Errorf("page %d: TermCounts disagrees with snapshot at epoch %d", id, view.sn.Epoch()))
						}
					}
				})
			}
		}()
	}

	// Let the checkers overlap the whole ingest, then wind down.
	<-ingestDone
	e.DrainBackground()
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// After quiescence every ingested page's derived pair is visible.
	e.withView(func(view *DerivedView) {
		for _, id := range ids {
			if view.TermCounts(id).IDs == nil {
				t.Fatalf("page %d: derived stats missing after ingest", id)
			}
		}
	})
}
