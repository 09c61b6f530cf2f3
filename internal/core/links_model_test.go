package core

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"memex/internal/events"
	"memex/internal/kvstore"
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
			rest, ok := strings.CutPrefix(key, "lnk/")
			if !ok {
				rest, ok = strings.CutPrefix(key, "rin/")
			}
			if page, err := strconv.ParseInt(rest, 10, 64); ok && err == nil {
				pages = append(pages, page)
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

// FuzzLinkRecordsAgainstModel drives publish — link-only calls and
// tf-carrying ones, the visit-referrer and fetch paths — over eight pages,
// interleaved with folds and reopens. After every step the records are
// held against a map of the edges published so far: every page's Out and
// In through a fresh view, whether the page is known at all, and
// GraphEdges. Each op is three bytes: the kind, the source page, and a
// bitmask of target pages.
func FuzzLinkRecordsAgainstModel(f *testing.F) {
	f.Add([]byte{0, 0, 0x06, 1, 1, 0x0d, 2, 0, 0, 0, 2, 0x01, 3, 0, 0, 0, 0, 0x86})
	f.Add([]byte{1, 3, 0, 0, 3, 0x08, 2, 0, 0, 1, 3, 0xf0, 3, 0, 0, 0, 4, 0x08})
	f.Add([]byte{0, 7, 0xff, 3, 0, 0, 0, 7, 0x7f, 2, 0, 0, 0, 6, 0x80, 3, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const pages, maxOps = 8, 48
		ops = ops[:min(len(ops), 3*maxOps)]
		cfg := Config{Dir: t.TempDir(), Source: oneSource{}, KV: kvstore.Options{Sync: kvstore.SyncGroup}, VersionGCInterval: -1, Workers: 1}
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
		for i := 0; i+3 <= len(ops); i += 3 {
			from, mask := int64(ops[i+1]%pages)+1, ops[i+2]
			switch ops[i] % 4 {
			case 0, 1:
				var targets []int64
				for b := int64(0); b < pages; b++ {
					if mask&(1<<b) != 0 {
						targets = append(targets, b+1)
					}
				}
				var tf *text.Vector
				if ops[i]%4 == 1 {
					v := text.VectorFromCounts(e.dict, map[string]int{fmt.Sprint("term", mask%16): int(from)})
					tf = &v
				}
				if err := e.links.publish(from, targets, tf); err != nil {
					t.Fatal(err)
				}
				fresh := false
				for _, to := range targets {
					if to != from && !edges[[2]int64{from, to}] {
						edges[[2]int64{from, to}], known[to], fresh = true, true, true
					}
				}
				if fresh || tf != nil {
					known[from] = true
				}
			case 2:
				if _, err := e.vs.Fold(); err != nil {
					t.Fatal(err)
				}
			case 3:
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				if e, err = Open(cfg); err != nil {
					t.Fatal(err)
				}
			}
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
							i/3, p, v.Out(p), v.In(p), v.Has(p), out[p], in[p], known[p])
					}
				}
			})
			if got := e.Status().GraphEdges; got != len(edges) {
				t.Fatalf("op %d: GraphEdges = %d, model %d", i/3, got, len(edges))
			}
		}
	})
}

// TestLinkPublishReadErrorPublishesNothing: when the store cannot read a
// record a publish must rewrite, the publish returns the error and leaves
// everything as it was — no record written, no epoch taken. Taking the
// failed read for "no record" would replace the page's out-links with a
// subset, for good. Through RecordVisit the error is the caller's; through
// the fetch path the claim is released and the failure counted, as for a
// failed row write.
func TestLinkPublishReadErrorPublishesNothing(t *testing.T) {
	page := Content{URL: "http://zoo.example/okapi", Title: "Okapi", Text: "okapi rainforest giraffid", Links: []string{"http://zoo.example/bongo"}}
	e, err := Open(Config{Dir: t.TempDir(), Source: oneSource{page}, KV: kvstore.Options{Sync: kvstore.SyncGroup}, VersionGCInterval: -1})
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
	okapi, err := e.ensurePage(page.URL)
	if err != nil {
		t.Fatal(err)
	}
	coldKey := []byte("vc/r/" + lnkKey(okapi) + "\x00\x00\x00\x00")
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
		if err := e.RecordVisit(1, "http://zoo.example/bongo", page.URL, tBase.Add(time.Minute), events.Community); err == nil {
			t.Fatal("RecordVisit published a referrer edge over an unreadable lnk/ record")
		}
		unchanged(t)
		if got := e.Status().Visits; got != before.Visits {
			t.Fatalf("%d visits logged, %d before: the failed visit was counted", got, before.Visits)
		}
	})
	t.Run("fetch", func(t *testing.T) {
		if e.fetchAndIndexSlow(okapi, page.URL).IDs != nil {
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
