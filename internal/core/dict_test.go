package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memex/internal/events"
	"memex/internal/text"
	"memex/internal/webcorpus"
)

// The term dictionary's durable half: every id a tf/ record names has its
// dict/<id> record in the same batch as the first page that names it, or
// in an earlier one (linkIndex.publish). These tests hold that epoch rule,
// what Open refuses, and that ids survive a restart.

// recordIDs reads the ids a tf/ record names, without a dictionary.
func recordIDs(raw []byte) []int32 {
	n, w := binary.Uvarint(raw)
	raw = raw[w:]
	var ids []int32
	id := uint64(0)
	for i := uint64(0); i < n; i++ {
		delta, w := binary.Uvarint(raw)
		raw = raw[w:]
		_, w = binary.Uvarint(raw)
		raw = raw[w:]
		id += delta
		ids = append(ids, int32(id))
	}
	return ids
}

// spelledCounts is the term-count codec before dict/ records: uvarint(n),
// then per term (in sorted order) uvarint(len), the bytes, uvarint(count).
func spelledCounts(tf map[string]int) []byte {
	terms := make([]string, 0, len(tf))
	for term := range tf {
		terms = append(terms, term)
	}
	slices.Sort(terms)
	buf := binary.AppendUvarint(nil, uint64(len(terms)))
	for _, term := range terms {
		buf = binary.AppendUvarint(buf, uint64(len(term)))
		buf = append(buf, term...)
		buf = binary.AppendUvarint(buf, uint64(tf[term]))
	}
	return buf
}

// pairSource serves <base>/p<i> as a page with a term of its own and a
// term it shares with its pair (pages 2k and 2k+1), both never seen before,
// so the two analyzers race to publish the same new term.
type pairSource struct{ base string }

func (s pairSource) url(i int) string { return fmt.Sprintf("%s/p%d", s.base, i) }

func (s pairSource) Lookup(url string) (Content, bool) {
	var i int
	if n, err := fmt.Sscanf(url, s.base+"/p%d", &i); n != 1 || err != nil {
		return Content{}, false
	}
	return Content{
		URL: url, Title: fmt.Sprint("Page ", i),
		Text:  fmt.Sprintf("own%d pair%d archived trails", i, i/2),
		Links: []string{s.url(i + 1)},
	}, true
}

// TestDictionaryRidesWithFirstPage: two analyzers ingest pages that share
// never-seen terms while a checker pins view after view; in every view,
// every tf/ record's ids have their dict/ records, read raw from the same
// snapshot — not through the in-memory dictionary, which always has them.
func TestDictionaryRidesWithFirstPage(t *testing.T) {
	src := pairSource{base: "http://dict.example"}
	e, err := Open(Config{
		Dir: t.TempDir(), Source: src,
		GCInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.RegisterUser(1, "alice")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var views, records int
	var bad error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for bad == nil {
			select {
			case <-stop:
				return
			default:
			}
			e.withView(func(v *DerivedView) {
				views++
				v.sn.Range(func(key string, raw []byte) bool {
					if _, ok := pageOfTFKey(key); !ok {
						return true
					}
					records++
					for _, id := range recordIDs(raw) {
						if _, ok := v.sn.Get(dictKey(id)); !ok {
							bad = fmt.Errorf("epoch %d: %s names id %d, and the view has no %s", v.sn.Epoch(), key, id, dictKey(id))
							return false
						}
					}
					return true
				})
			})
		}
	}()
	const pages = 1500
	for i := 0; i < pages; i++ {
		if err := e.RecordVisit(1, src.url(i), "", tBase, events.Community); err != nil {
			t.Fatal(err)
		}
	}
	e.DrainBackground()
	close(stop)
	wg.Wait()
	if bad != nil {
		t.Fatal(bad)
	}
	if st := e.Status(); st.PagesFetched != pages || st.Terms < pages*3/2 {
		t.Fatalf("%d pages fetched and %d terms, want %d pages bringing 3 new terms a pair", st.PagesFetched, st.Terms, pages)
	}
	t.Logf("%d views checked, %d tf/ records in them", views, records)
}

// copyDir copies the engine's running directory to dst while holding the
// kvstore's read lock, so no commit or checkpoint lands half way through.
func copyDir(e *Engine, dst string) error {
	var err error
	scanErr := e.kv.Scan(nil, nil, func(_, _ []byte) bool {
		err = filepath.WalkDir(e.cfg.Dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(e.cfg.Dir, path)
			if err := os.MkdirAll(filepath.Dir(filepath.Join(dst, rel)), 0o755); err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
		})
		return false
	})
	return errors.Join(scanErr, err)
}

// TestMidCrawlCopyDecodesEveryRecord copies the running directory again
// and again while a crawl publishes and the gc demon folds every 10 ms,
// then opens each copy: whatever cut of the epochs a copy holds, every tf/
// record in it decodes, so PagesIndexed equals its tf/ record count.
func TestMidCrawlCopyDecodesEveryRecord(t *testing.T) {
	src := linkedSource{base: "http://crawl.example", links: 6}
	const pages = 1500
	e, err := Open(Config{
		Dir: t.TempDir(), Source: src,
		queueSize:  2 * pages,
		GCInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.RegisterUser(1, "alice")
	// A copier waits for the watermark to move and folds at once, so each
	// copy's cut lands right behind a publish — where dictionary records
	// published apart from their page would still be missing — then copies
	// the directory; 40 times, or for as long as the crawl runs. (The demon
	// alone folds once per 4 096 entries.)
	root := t.TempDir()
	var (
		copies []string
		stop   atomic.Bool
		wg     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for len(copies) < 40 && !stop.Load() {
			for wm := e.vs.Watermark(); e.vs.Watermark() == wm && !stop.Load(); {
				runtime.Gosched()
			}
			dst := filepath.Join(root, fmt.Sprint(len(copies)))
			if _, err := e.vs.Fold(); err != nil {
				t.Error(err)
				return
			}
			if err := copyDir(e, dst); err != nil {
				t.Error(err)
				return
			}
			copies = append(copies, dst)
		}
	}()
	halt := func() { stop.Store(true); wg.Wait() }
	defer halt() // before e.Close
	for i := 0; i < pages; i++ {
		if err := e.RecordVisit(1, src.url(i), "", tBase, events.Community); err != nil {
			t.Fatal(err)
		}
	}
	e.DrainBackground()
	halt()

	folded := 0
	for i, dir := range copies {
		// A source that serves nothing: the fetches Open requeues for the
		// copy's unfetched pages must not index anything under the count.
		c, err := Open(Config{Dir: dir, Source: oneSource{}, GCInterval: -1})
		if err != nil {
			t.Fatalf("copy %d does not open: %v", i, err)
		}
		records := 0
		c.withView(func(v *DerivedView) {
			v.sn.Range(func(key string, _ []byte) bool {
				if _, ok := pageOfTFKey(key); ok {
					records++
				}
				return true
			})
		})
		st := c.Status()
		c.Close()
		if st.PagesIndexed != records {
			t.Fatalf("copy %d: %d pages indexed, %d tf/ records", i, st.PagesIndexed, records)
		}
		if records > 0 {
			folded++
		}
	}
	t.Logf("%d copies, %d of them holding tf/ records", len(copies), folded)
	if folded < len(copies)/2 {
		t.Fatal("too few copies caught a fold: the crawl is too small to test anything")
	}
}

// TestPanicAfterStageLeavesNoGap: a publish that panics after staging the
// dictionary records publishes nothing — no epoch, no dict/ record, no tf/
// record — and leaves termsOut where it was, so the next page stages those
// ids again and the next Open finds no gap.
func TestPanicAfterStageLeavesNoGap(t *testing.T) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 5, TopTopics: 3, SubPerTopic: 2, PagesPerLeaf: 20})
	cfg := Config{Dir: t.TempDir(), Source: corpusSource{c}, GCInterval: -1}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	leaves := c.Leaves()
	first, second := c.Page(c.LeafPages[leaves[0].ID][0]), c.Page(c.LeafPages[leaves[len(leaves)-1].ID][0])
	fetch := func(p *webcorpus.Page) {
		id, err := e.ensurePage(p.URL)
		if err != nil {
			t.Fatal(err)
		}
		e.ingest([]int64{id}, nil)
	}

	wm, carried := e.vs.Watermark(), e.links.termsOut
	e.links.afterStage = func() { panic("encode failed") }
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the hook did not panic")
			}
		}()
		fetch(first)
	}()
	e.links.afterStage = nil
	if got := e.vs.Watermark(); got != wm {
		t.Fatalf("the panicked publish moved the watermark from %d to %d", wm, got)
	}
	if e.links.termsOut != carried {
		t.Fatalf("the panicked publish moved termsOut from %d to %d", carried, e.links.termsOut)
	}
	named := int32(e.dict.Size())
	if named <= carried {
		t.Fatal("the first page named no new term")
	}
	e.withView(func(v *DerivedView) {
		for id := carried; id < named; id++ {
			if _, ok := v.sn.Get(dictKey(id)); ok {
				t.Fatalf("the panicked publish left %s visible", dictKey(id))
			}
		}
		if _, ok := v.sn.Get(tfKey(e.idByURL[first.URL])); ok {
			t.Fatal("the panicked publish left the page's tf/ record visible")
		}
	})
	fetch(second)
	if e.links.termsOut <= named {
		t.Fatal("the second page named no new term")
	}
	terms := e.Status().Terms
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e, err = Open(cfg)
	if err != nil {
		t.Fatalf("reopen after a panicked publish: %v", err)
	}
	defer e.Close()
	if got := e.Status().Terms; got != terms {
		t.Fatalf("%d terms after reopen, %d before", got, terms)
	}
}

// TestOpenRefusesDictionaryGap: a dictionary missing an id below its size
// is refused, and the error names the id. The gap is cut by a record one
// past the next free id, since the store has no deletes.
func TestOpenRefusesDictionaryGap(t *testing.T) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 7, TopTopics: 3, SubPerTopic: 2, PagesPerLeaf: 20})
	cfg := Config{Dir: t.TempDir(), Source: corpusSource{c}, GCInterval: -1}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seedEngine(t, e, c, 8)
	terms := int32(e.Status().Terms)
	b := e.vs.BeginSized(0)
	b.Put(dictKey(terms+1), []byte("gap-beyond-the-dictionary"))
	if err := b.Publish(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e, err = Open(cfg)
	if err == nil {
		e.Close()
		t.Fatal("Open accepted a dictionary with a gap")
	}
	if want := strconv.Quote(dictKey(terms)); !strings.Contains(err.Error(), want) {
		t.Fatalf("refusal does not name the missing id %s: %v", want, err)
	}
}

// TestOpenRefusesNonCanonicalKeys: a tf/ or dict/ key that tfKey or dictKey
// does not spell is a second spelling of an id (tf/05 beside tf/5 would
// index page 5 twice, dict/+0 would replace dict/0's term), so Open
// refuses the archive and names the key.
func TestOpenRefusesNonCanonicalKeys(t *testing.T) {
	for _, key := range []string{"tf/05", "tf/+5", "tf/0", "dict/+0", "dict/03"} {
		t.Run(key, func(t *testing.T) {
			cfg := Config{Dir: t.TempDir(), Source: oneSource{}, GCInterval: -1}
			e, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b := e.vs.BeginSized(0)
			b.Put(key, []byte{0})
			if err := b.Publish(); err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			e, err = Open(cfg)
			if err == nil {
				e.Close()
				t.Fatalf("Open accepted an archive holding %q", key)
			}
			if !strings.Contains(err.Error(), strconv.Quote(key)) {
				t.Fatalf("refusal does not name %q: %v", key, err)
			}
		})
	}
}

// TestRecordPastDictionaryIsRefetched: a tf/ record naming an id the
// dictionary does not hold is undecodable, not a reason to refuse the
// archive: Open succeeds, the page stays unclaimed, and the fetch requeued
// for it republishes a good record. So is a record naming terms in an
// archive with no dictionary at all, as one that spells its terms (the
// codec before dict/ records) is: the first life's source lacked the page,
// so nothing published a dict/ record.
func TestRecordPastDictionaryIsRefetched(t *testing.T) {
	page := Content{URL: "http://zoo.example/quagga", Title: "Quagga", Text: "zebra quagga savannah"}
	const pageTerms = 3
	for _, tc := range []struct {
		name   string
		first  PageSource
		record func(terms int) []byte
	}{
		{"id past the dictionary", oneSource{page}, func(terms int) []byte {
			return append(binary.AppendUvarint([]byte{1}, uint64(terms+3)), 1)
		}},
		{"no dictionary", oneSource{}, func(int) []byte {
			return spelledCounts(map[string]int{"zebra": 1, "quagga": 2, "savannah": 1})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Dir: t.TempDir(), Source: tc.first, GCInterval: -1}
			e, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.RegisterUser(1, "alice")
			if err := e.RecordVisit(1, page.URL, "", tBase, events.Community); err != nil {
				t.Fatal(err)
			}
			e.DrainBackground()
			id := e.idByURL[page.URL]
			b := e.vs.BeginSized(0)
			b.Put(tfKey(id), tc.record(e.Status().Terms))
			if err := b.Publish(); err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}

			cfg.Source = oneSource{page}
			e, err = Open(cfg)
			if err != nil {
				t.Fatalf("Open refused an archive with one undecodable tf/ record: %v", err)
			}
			defer e.Close()
			e.DrainBackground()
			st := e.Status()
			if st.PagesFetched != 1 || st.PagesIndexed != 1 || st.Terms != pageTerms {
				t.Fatalf("after reopen: %d fetched, %d indexed, %d terms; want the page requeued and refetched, %d terms", st.PagesFetched, st.PagesIndexed, st.Terms, pageTerms)
			}
			if hits := e.Search(1, "quagga", 5); len(hits) != 1 || hits[0].ID != id {
				t.Fatalf("refetched page not searchable: %v", hits)
			}
		})
	}
}

// TestTermIDsSurviveRestart: across Close → Open the dictionary has the
// same size and every fetched page's vector the same ids and weights, bit
// for bit — ids are durable, not assigned again in replay order.
func TestTermIDsSurviveRestart(t *testing.T) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 5, TopTopics: 3, SubPerTopic: 2, PagesPerLeaf: 20})
	cfg := Config{Dir: t.TempDir(), Source: corpusSource{c}}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seedEngine(t, e, c, 60)
	terms := e.dict.Size()
	pages := fetchedPages(e)
	vecs := map[int64]text.Vector{}
	e.withView(func(v *DerivedView) {
		for _, p := range pages {
			vecs[p] = v.TermCounts(p)
		}
	})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if got := e.dict.Size(); got != terms || e.Status().Terms != terms {
		t.Fatalf("dictionary holds %d terms after reopen, %d before", got, terms)
	}
	e.withView(func(v *DerivedView) {
		for _, p := range pages {
			got := v.TermCounts(p)
			if !reflect.DeepEqual(got.IDs, vecs[p].IDs) || !reflect.DeepEqual(got.Weights, vecs[p].Weights) {
				t.Fatalf("page %d: vector changed across restart:\n before %v\n after  %v", p, vecs[p], got)
			}
		}
	})
}
