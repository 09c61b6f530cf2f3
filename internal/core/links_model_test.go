package core

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"
	"time"

	"memex/internal/events"
	"memex/internal/text"
)

// linkGraph is every page's Out and In as one view reads them, for each
// page with a lnk/ or rin/ record.
type linkGraph struct{ out, in map[int64][]int64 }

func linkGraphOf(t *testing.T, e *Engine) linkGraph {
	t.Helper()
	g := linkGraph{out: map[int64][]int64{}, in: map[int64][]int64{}}
	e.withView(func(v *DerivedView) {
		var pages []int64
		err := v.sn.Range(func(key string, _ []byte) bool {
			page, ok := idOfKey(key, "lnk/", math.MaxInt64)
			if !ok {
				page, ok = idOfKey(key, "rin/", math.MaxInt64)
			}
			if ok {
				pages = append(pages, int64(page))
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pages {
			g.out[p], g.in[p] = slices.Clone(v.Out(p)), slices.Clone(v.In(p))
		}
	})
	return g
}

// edges is the number of out-links the graph's pages hold.
func (g linkGraph) edges() int {
	n := 0
	for _, outs := range g.out {
		n += len(outs)
	}
	return n
}

// mustEqual fails unless other holds the same pages with the same Out and
// In, naming the first page that differs.
func (g linkGraph) mustEqual(t *testing.T, other linkGraph) {
	t.Helper()
	if maps.EqualFunc(g.out, other.out, slices.Equal) && maps.EqualFunc(g.in, other.in, slices.Equal) {
		return
	}
	var pages []int64
	for _, m := range []map[int64][]int64{g.out, other.out} {
		for p := range m {
			pages = append(pages, p)
		}
	}
	slices.Sort(pages)
	for _, p := range pages {
		_, had := g.out[p]
		_, has := other.out[p]
		if had != has || !slices.Equal(g.out[p], other.out[p]) || !slices.Equal(g.in[p], other.in[p]) {
			t.Fatalf("page %d: out %v, in %v; was out %v, in %v", p, other.out[p], other.in[p], g.out[p], g.in[p])
		}
	}
}

// FuzzLinkRecordsAgainstModel drives publish — link-only updates and
// tf-carrying ones, the visit-referrer and fetch paths, alone and in
// groups — over eight pages, interleaved with folds and reopens. After
// every publish the records are held against a map of the edges published
// so far: every page's Out and In through a fresh view, whether the page
// is known at all, and GraphEdges. Each op is three bytes: the kind, the
// source page, and a bitmask of target pages. An update whose kind byte
// has its top bit set joins a pending group, which publishes as one with
// the next update without it (or before the next fold or reopen, or at
// the end), so a group may name one source several times.
func FuzzLinkRecordsAgainstModel(f *testing.F) {
	f.Add([]byte{0, 0, 0x06, 1, 1, 0x0d, 2, 0, 0, 0, 2, 0x01, 3, 0, 0, 0, 0, 0x86})
	f.Add([]byte{1, 3, 0, 0, 3, 0x08, 2, 0, 0, 1, 3, 0xf0, 3, 0, 0, 0, 4, 0x08})
	f.Add([]byte{0, 7, 0xff, 3, 0, 0, 0, 7, 0x7f, 2, 0, 0, 0, 6, 0x80, 3, 0, 0})
	f.Add([]byte{0x80, 0, 0x06, 0x81, 0, 0x0c, 1, 2, 0x01, 0x80, 3, 0x01, 0x80, 3, 0x10, 2, 0, 0, 0x81, 5, 0x20, 0, 5, 0x41, 3, 0, 0})
	f.Add([]byte{0x81, 1, 0, 0x80, 2, 0x02, 0x80, 2, 0x01, 0, 4, 0x02, 0x80, 6, 0xff, 3, 0, 0, 0x81, 6, 0x7f})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const pages, maxOps = 8, 48
		ops = ops[:min(len(ops), 3*maxOps)]
		cfg := Config{Dir: t.TempDir(), Source: oneSource{}, GCInterval: -1, workers: 1}
		e, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if e != nil {
				e.Close()
			}
		}()
		edges := map[[2]int64]bool{}
		known := map[int64]bool{}
		var group []linkUpdate
		publish := func() {
			if err := e.links.publish(group); err != nil {
				t.Fatal(err)
			}
			for _, u := range group {
				fresh := false
				for _, to := range u.targets {
					if to != u.from && !edges[[2]int64{u.from, to}] {
						edges[[2]int64{u.from, to}], known[to], fresh = true, true, true
					}
				}
				if fresh || u.tf != nil {
					known[u.from] = true
				}
			}
			group = nil
		}
		for i := 0; i+3 <= len(ops); i += 3 {
			from, mask := int64(ops[i+1]%pages)+1, ops[i+2]
			switch ops[i] % 4 {
			case 0, 1:
				u := linkUpdate{from: from}
				for b := int64(0); b < pages; b++ {
					if mask&(1<<b) != 0 {
						u.targets = append(u.targets, b+1)
					}
				}
				if ops[i]%4 == 1 {
					v := text.VectorFromCounts(e.dict, map[string]int{fmt.Sprint("term", mask%16): int(from)})
					u.tf = &v
				}
				if group = append(group, u); ops[i]&0x80 != 0 {
					continue // the group is still open
				}
				publish()
			case 2:
				if len(group) > 0 {
					publish()
				}
				if _, err := e.vs.Fold(); err != nil {
					t.Fatal(err)
				}
			case 3:
				if len(group) > 0 {
					publish()
				}
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				if e, err = Open(cfg); err != nil {
					t.Fatal(err)
				}
			}
			checkModel(t, e, i/3, pages, edges, known)
		}
		if len(group) > 0 {
			publish()
			checkModel(t, e, len(ops)/3, pages, edges, known)
		}
	})
}

// checkModel holds every page's Out, In and Has through a fresh view, and
// GraphEdges, against the model's edges and known pages.
func checkModel(t *testing.T, e *Engine, op int, pages int64, edges map[[2]int64]bool, known map[int64]bool) {
	t.Helper()
	out, in := map[int64][]int64{}, map[int64][]int64{}
	for ed := range edges {
		out[ed[0]] = append(out[ed[0]], ed[1])
		in[ed[1]] = append(in[ed[1]], ed[0])
	}
	e.withView(func(v *DerivedView) {
		for p := int64(1); p <= pages; p++ {
			slices.Sort(out[p])
			slices.Sort(in[p])
			if !slices.Equal(v.Out(p), out[p]) || !slices.Equal(v.In(p), in[p]) || v.Has(p) != known[p] {
				t.Fatalf("op %d, page %d: out %v, in %v, known %v; model out %v, in %v, known %v",
					op, p, v.Out(p), v.In(p), v.Has(p), out[p], in[p], known[p])
			}
		}
	})
	if got := e.Status().GraphEdges; got != len(edges) {
		t.Fatalf("op %d: GraphEdges = %d, model %d", op, got, len(edges))
	}
}

// TestLinkPublishReadErrorPublishesNothing: when the store cannot read a
// record a publish must rewrite, the publish returns the error and leaves
// everything as it was — no record written, no epoch taken. Taking the
// failed read for "no record" would replace the page's out-links with a
// subset, for good. A visit is acknowledged and logged before its referrer
// edge is published, so its edge's group publishes nothing, and the row
// stays the edge's durable evidence; through the fetch path the claim is
// released and the failure counted, as for a failed row write.
func TestLinkPublishReadErrorPublishesNothing(t *testing.T) {
	page := Content{URL: "http://zoo.example/okapi", Title: "Okapi", Text: "okapi rainforest giraffid", Links: []string{"http://zoo.example/bongo"}}
	e, err := Open(Config{Dir: t.TempDir(), Source: oneSource{page}, GCInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.RegisterUser(1, "alice")
	// An edge okapi → duiker, folded to the cold tier; then okapi's lnk/
	// record there made unreadable: part 0 with a part count of zero.
	if err := e.RecordVisit(1, "http://zoo.example/duiker", page.URL, tBase, events.Community); err != nil {
		t.Fatal(err)
	}
	e.DrainBackground()
	if _, err := e.vs.Fold(); err != nil {
		t.Fatal(err)
	}
	okapi := pageID(t, e, page.URL)
	coldKey := coldPart0Key(lnkKey(okapi))
	if _, ok, err := e.kv.Get(coldKey); !ok || err != nil {
		t.Fatalf("no cold record %q (err %v)", coldKey, err)
	}
	if err := e.kv.Put(coldKey, []byte{0}); err != nil {
		t.Fatal(err)
	}
	before := e.Status()
	unchanged := func(t *testing.T) {
		t.Helper()
		st := e.Status()
		if st.Version.Watermark != before.Version.Watermark || st.Version.Entries != before.Version.Entries || st.GraphEdges != before.GraphEdges {
			t.Fatalf("something was published: watermark %d → %d, entries %d → %d, edges %d → %d",
				before.Version.Watermark, st.Version.Watermark, before.Version.Entries, st.Version.Entries, before.GraphEdges, st.GraphEdges)
		}
		if raw, _, err := e.kv.Get(coldKey); err != nil || !bytes.Equal(raw, []byte{0}) {
			t.Fatalf("the cold lnk/ record changed: %x (err %v)", raw, err)
		}
	}

	t.Run("visit", func(t *testing.T) {
		if err := e.RecordVisit(1, "http://zoo.example/bongo", page.URL, tBase.Add(time.Minute), events.Community); err != nil {
			t.Fatalf("RecordVisit: %v", err)
		}
		e.DrainBackground()
		unchanged(t)
		if got := e.Status().Visits; got != before.Visits+1 {
			t.Fatalf("%d visits logged, %d before: want the visit acknowledged and logged", got, before.Visits)
		}
	})
	t.Run("fetch", func(t *testing.T) {
		if tfs, _ := e.ingest([]int64{okapi}, nil); len(tfs) != 0 {
			t.Fatal("the fetch reported success over an unreadable lnk/ record")
		}
		unchanged(t)
		if e.derivedPublished(okapi) {
			t.Fatal("the claim survived the failed publish")
		}
		st := e.Status()
		if st.FetchesFailed != before.FetchesFailed+1 || st.PagesFetched != before.PagesFetched || st.PagesIndexed != before.PagesIndexed {
			t.Fatalf("FetchesFailed %d → %d, PagesFetched %d → %d, PagesIndexed %d → %d; want one more failure and nothing fetched or indexed",
				before.FetchesFailed, st.FetchesFailed, before.PagesFetched, st.PagesFetched, before.PagesIndexed, st.PagesIndexed)
		}
	})
}
