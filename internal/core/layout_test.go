package core

import (
	"encoding/binary"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"memex/internal/events"
	"memex/internal/kvstore"
	"memex/internal/rdbms"
	"memex/internal/textindex"
	"memex/internal/version"
)

// tableLen counts one table's records.
func tableLen(t *testing.T, e *Engine, prefix string) int {
	t.Helper()
	n := 0
	if err := e.kv.ScanPrefix([]byte(prefix), func(_, _ []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	return n
}

// pageID returns url's page id, writing its row if the page is new.
func pageID(t testing.TB, e *Engine, url string) int64 {
	t.Helper()
	ids, err := e.ensurePages([]string{url}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ids[0]
}

// The writers below leave dir as an archive of another format would be,
// one this build refuses, holding refusedPage where it holds a page.
var (
	refusedKV   = kvstore.Options{Sync: kvstore.SyncGroup}
	refusedPage = Content{URL: "http://zoo.example/okapi", Title: "Okapi", Text: "okapi forest"}
)

// withKV runs fn on the kvstore in dir and closes it.
func withKV(dir string, fn func(*kvstore.Store) error) error {
	kv, err := kvstore.Open(dir, refusedKV)
	if err != nil {
		return err
	}
	if err := fn(kv); err != nil {
		kv.Close()
		return err
	}
	return kv.Close()
}

// then runs build, then fn on the kvstore build left.
func then(build func(string) error, fn func(*kvstore.Store) error) func(string) error {
	return func(dir string) error {
		if err := build(dir); err != nil {
			return err
		}
		return withKV(dir, fn)
	}
}

// oneKey writes key alone, as a store holding one record of another
// layout's keyspace.
func oneKey(key string, value []byte) func(string) error {
	return func(dir string) error {
		return withKV(dir, func(kv *kvstore.Store) error { return kv.Put([]byte(key), value) })
	}
}

// rowLayer writes the generic row layer's pages table (its catalog key
// cat/pages, with the fetched column and url index of its last schema)
// and, with a row, its sequence, row and index keys.
func rowLayer(withRow bool) func(string) error {
	return func(dir string) error {
		db, err := rdbms.Open(dir, refusedKV)
		if err != nil {
			return err
		}
		defer db.Close()
		tbl, err := db.CreateTable(rdbms.Schema{Name: "pages", Key: "id", Indexes: []string{"url"}, Columns: []rdbms.Column{
			{Name: "id", Type: rdbms.TInt}, {Name: "url", Type: rdbms.TString},
			{Name: "title", Type: rdbms.TString}, {Name: "fetched", Type: rdbms.TBool},
		}})
		if err != nil || !withRow {
			return err
		}
		id, err := tbl.NextID()
		if err != nil {
			return err
		}
		return tbl.Insert(rdbms.Row{"id": rdbms.Int(id), "url": rdbms.String(refusedPage.URL), "title": rdbms.String(refusedPage.Title), "fetched": rdbms.Bool(true)})
	}
}

// engineArchive is an archive this build writes: one visited, fetched page.
func engineArchive(dir string) error {
	e, err := Open(Config{Dir: dir, Source: oneSource{refusedPage}})
	if err != nil {
		return err
	}
	e.RegisterUser(1, "alice")
	if err := e.RecordVisit(1, refusedPage.URL, "", tBase, events.Community); err != nil {
		e.Close()
		return err
	}
	e.DrainBackground()
	return e.Close()
}

// publishCold publishes key → value through a bare version store over kv
// and folds it into the cold tier.
func publishCold(key string, value []byte) func(*kvstore.Store) error {
	return func(kv *kvstore.Store) error {
		vs, err := version.Open(kv, "vc/", version.Options{})
		if err != nil {
			return err
		}
		b := vs.BeginSized(0)
		b.Put(key, value)
		if err := b.Publish(); err != nil {
			return err
		}
		return vs.Close()
	}
}

// unstamp deletes the format stamp, leaving the archive as a build from
// before the stamp would have.
func unstamp(kv *kvstore.Store) error {
	return kv.PutBatch([]kvstore.KV{{Key: []byte(formatKey), Delete: true}})
}

// refusedIntact wants Open to refuse dir with an error naming each of want,
// and dir's files byte for byte what they were.
func refusedIntact(t *testing.T, dir string, want ...string) {
	t.Helper()
	before := dirBytes(t, dir)
	e, err := Open(Config{Dir: dir, Source: oneSource{refusedPage}})
	if err == nil {
		e.Close()
		t.Fatal("Open accepted the archive")
	}
	for _, w := range want {
		if !strings.Contains(err.Error(), w) {
			t.Errorf("Open's error %q does not name %s", err, w)
		}
	}
	if after := dirBytes(t, dir); !maps.Equal(after, before) {
		t.Fatal("the refused archive's files changed")
	}
}

// TestOpenRefusesOtherFormats: Open reads one format stamp before anything
// else. A store holding keys but no stamp — rows the generic row layer
// wrote, a cold tier a bare version store folded, an engine archive from
// before the stamp — or one stamped with another format, or a data.db of
// another page layout, is refused with an error naming what was found and
// what this build reads, and its files are byte for byte what they were.
// A fresh directory is stamped once and reopens.
func TestOpenRefusesOtherFormats(t *testing.T) {
	coldTier := func(dir string) error { return withKV(dir, publishCold(tfKey(1), []byte{0})) }
	restamped := then(engineArchive, func(kv *kvstore.Store) error {
		return kv.Put([]byte(formatKey), []byte("memex/0"))
	})
	// memex/1, the format before titles moved into tf/ records: a pages
	// row holds the page's id and then its title.
	titledRows := then(engineArchive, func(kv *kvstore.Store) error {
		k, v := pageRow{id: 1, url: refusedPage.URL}.record()
		return kv.PutBatch([]kvstore.KV{
			{Key: []byte(formatKey), Value: []byte("memex/1")},
			{Key: k, Value: append(v, refusedPage.Title...)},
		})
	})
	// memex/2, the format before derived records dropped what their
	// decoders infer: every tf/ term carried its count, every lnk/ and
	// rin/ record a count header, and every cold part 0 its part number.
	lengthHeaders := then(engineArchive, func(kv *kvstore.Store) error {
		return kv.Put([]byte(formatKey), []byte("memex/2"))
	})
	// memex/3, the format before derived keys spelled their ids as ordered
	// uints: tf/, lnk/, rin/ and dict/ keys held decimal ids, and every cold
	// part 0's key ended with a 0x00 0x00 terminator.
	decimalIDs := then(engineArchive, func(kv *kvstore.Store) error {
		return kv.PutBatch([]kvstore.KV{
			{Key: []byte(formatKey), Value: []byte("memex/3")},
			{Key: []byte("vc/r/tf/1\x00\x00"), Value: []byte{1, 0, 0}},
		})
	})
	// The kvstore's meta page keeps its page layout's magic, 8 bytes at
	// offset 16; "MEMEX" is the full-key leaf layout's.
	fullKeyLeaves := func(dir string) error {
		if err := engineArchive(dir); err != nil {
			return err
		}
		f, err := os.OpenFile(filepath.Join(dir, "data.db"), os.O_RDWR, 0)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = f.WriteAt(binary.LittleEndian.AppendUint64(nil, 0x4d454d4558), 16)
		return err
	}
	for _, tc := range []struct {
		name  string
		build func(string) error
		want  []string
	}{
		{"row layer", rowLayer(true), []string{`"cat/pages"`, "no format stamp", strconv.Quote(format)}},
		{"cold tier only", coldTier, []string{`"vc/`, "no format stamp", strconv.Quote(format)}},
		{"rows without a stamp", then(engineArchive, unstamp), []string{"no format stamp", strconv.Quote(format)}},
		{"foreign stamp", restamped, []string{`"memex/0"`, strconv.Quote(format)}},
		{"titles in rows", titledRows, []string{`"memex/1"`, strconv.Quote(format)}},
		{"counts and part numbers stored", lengthHeaders, []string{`"memex/2"`, strconv.Quote(format)}},
		{"decimal ids", decimalIDs, []string{`"memex/3"`, strconv.Quote(format)}},
		{"foreign magic", fullKeyLeaves, []string{"0x4d454d4558", "MEMEX2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := tc.build(dir); err != nil {
				t.Fatal(err)
			}
			refusedIntact(t, dir, tc.want...)
		})
	}

	t.Run("fresh", func(t *testing.T) {
		dir := t.TempDir()
		for life := 1; life <= 3; life++ {
			e, err := Open(Config{Dir: dir, Source: oneSource{refusedPage}})
			if err != nil {
				t.Fatalf("life %d: %v", life, err)
			}
			commits := e.kv.Stats().Commits
			stamp, ok, err := e.kv.Get([]byte(formatKey))
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if err != nil || !ok || string(stamp) != format {
				t.Fatalf("life %d: stamp %q (present %v, err %v), want %q", life, stamp, ok, err, format)
			}
			want := uint64(0)
			if life == 1 {
				want = 1 // the stamp
			}
			if commits != want {
				t.Fatalf("life %d: Open made %d commits, want %d", life, commits, want)
			}
		}
	})
}

// TestOpenRefusesForeignSchema: a directory whose generic-row-layer catalog
// holds a pages schema (here the one before the fetched column and the url
// index were dropped) carries no format stamp, and Open refuses it, naming
// its catalog key, instead of failing every page insert later.
func TestOpenRefusesForeignSchema(t *testing.T) {
	dir := t.TempDir()
	if err := rowLayer(false)(dir); err != nil {
		t.Fatal(err)
	}
	refusedIntact(t, dir, `"cat/pages"`, "no format stamp")
}

// TestOpenRefusesRowLayerArchive: an archive the generic row layer wrote —
// a catalog, a sequence, a row and an index entry — is refused at Open
// with an error naming its first key, and its files are byte for byte
// what they were. A key of any one of the layer's four keyspaces alone is
// refused the same way: no store this build writes holds one unstamped.
func TestOpenRefusesRowLayerArchive(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(string) error
		key   string
	}{
		{"row layer", rowLayer(true), "cat/pages"},
		{"sequence", oneKey("seq/visits", []byte{1}), "seq/visits"},
		{"row", oneKey("tbl/\x00\x00\x00\x01/x", []byte{1}), `tbl/\x00\x00\x00\x01/x`},
		{"index", oneKey("idx/\x00\x00\x00\x01/\x00\x01/x", []byte{1}), `idx/\x00\x00\x00\x01/\x00\x01/x`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := tc.build(dir); err != nil {
				t.Fatal(err)
			}
			refusedIntact(t, dir, `"`+tc.key+`"`, "no format stamp")
		})
	}
}

// TestIDKeyedPagesRefused: an archive whose pages records are keyed by id
// (p/<id> → url length ‖ url ‖ title, the layout before pages were keyed
// by url, and before the stamp) is refused at Open with an error naming
// its key, and its files are byte for byte what they were. Opening it
// would read no pages and hand every visited url a new id.
func TestIDKeyedPagesRefused(t *testing.T) {
	dir := t.TempDir()
	key := appendOrdered([]byte("p/"), 1)
	if err := oneKey(string(key), append(binary.AppendUvarint(nil, uint64(len(refusedPage.URL))), refusedPage.URL+refusedPage.Title...))(dir); err != nil {
		t.Fatal(err)
	}
	refusedIntact(t, dir, fmt.Sprintf("%q", key), "no format stamp")
}

// TestLinkRestartChunkedArchive: an archive that still holds an in-link
// delta chunk (rinD/<page>/<seq>, the format before a page's in-links were
// one record) was written before the format stamp, and Open refuses it,
// twice, leaving the directory byte for byte as it found it. Opening it
// anyway would drop the chunk's edges from every In without a word.
func TestLinkRestartChunkedArchive(t *testing.T) {
	dir := t.TempDir()
	chunked := then(engineArchive, func(kv *kvstore.Store) error {
		if err := publishCold("rinD/3/0", encodeIDSet([]int64{1 << 40}))(kv); err != nil {
			return err
		}
		return unstamp(kv)
	})
	if err := chunked(dir); err != nil {
		t.Fatal(err)
	}
	for life := 2; life <= 3; life++ {
		refusedIntact(t, dir, "no format stamp", strconv.Quote(format))
	}
}

// TestEnsurePageConcurrentFreshURLs: goroutines racing to resolve the same
// never-seen URLs agree on one id per URL and leave one row per URL — the
// locked re-check is the only thing between a map miss and an insert.
func TestEnsurePageConcurrentFreshURLs(t *testing.T) {
	_, e := testWorld(t)
	const workers, urls = 8, 200
	ids := make([][]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		ids[w] = make([]int64, urls)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < urls; i++ {
				// Each worker starts at its own offset so the races spread
				// over the whole set.
				u := (i + w*urls/workers) % urls
				id, err := e.ensurePages([]string{fmt.Sprintf("http://fresh.example/p%d", u)}, nil)
				if err != nil {
					t.Error(err)
					return
				}
				ids[w][u] = id[0]
			}
		}(w)
	}
	wg.Wait()
	distinct := map[int64]bool{}
	for u := 0; u < urls; u++ {
		for w := 1; w < workers; w++ {
			if ids[w][u] != ids[0][u] {
				t.Fatalf("url %d: worker %d got id %d, worker 0 got %d", u, w, ids[w][u], ids[0][u])
			}
		}
		distinct[ids[0][u]] = true
	}
	if len(distinct) != urls {
		t.Fatalf("%d distinct ids for %d urls", len(distinct), urls)
	}
	if rows := tableLen(t, e, pagesPrefix); rows != urls {
		t.Fatalf("pages table holds %d rows, want %d", rows, urls)
	}
}

// TestDurableLayoutHasNoUnreadIndex: an archive holds the four tables'
// records and the version store's vc/ keyspace, and nothing else — no
// index, catalog or sequence record: one visits record per visit, keyed
// for the one reader that needs an order (visitsIn), one bookmarks record
// per bookmark, one users record per user, one pages record per page.
func TestDurableLayoutHasNoUnreadIndex(t *testing.T) {
	c, e := testWorld(t)
	e.RegisterUser(1, "alice")
	pages := c.LeafPages[c.Leaves()[0].ID]
	const visits = 6
	for i := 0; i < visits; i++ {
		if err := e.RecordVisit(1, c.Page(pages[i]).URL, c.Page(pages[i+1]).URL, tBase, events.Community); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AddBookmark(1, c.Page(pages[0]).URL, "/saved", tBase); err != nil {
		t.Fatal(err)
	}
	e.DrainBackground()
	known := e.Status().Pages
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	kv, err := kvstore.Open(e.cfg.Dir, e.cfg.kvOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	count := map[string]int{}
	err = kv.Scan(nil, nil, func(k, _ []byte) bool {
		family, _, _ := strings.Cut(string(k), "/")
		count[family+"/"]++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{formatKey + "/": 1, visitsPrefix: visits, bookmarksPrefix: 1, usersPrefix: 1, pagesPrefix: known, "vc/": count["vc/"]}
	if !reflect.DeepEqual(count, want) {
		t.Fatalf("records by keyspace %v, want %v", count, want)
	}
}

// TestCorruptPageRowFailsOpen: a pages row that does not decode is an Open
// error naming the table and the key. A scan that skipped it forgot the
// page, and the next visit gave its URL a new id.
func TestCorruptPageRowFailsOpen(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), Source: oneSource{}, GCInterval: -1}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if id := pageID(t, e, fmt.Sprintf("http://zoo.example/p%d", i)); id != int64(i) {
			t.Fatalf("page %d got id %d", i, id)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	kv, err := kvstore.Open(cfg.Dir, cfg.kvOptions())
	if err != nil {
		t.Fatal(err)
	}
	key, _ := pageRow{url: "http://zoo.example/p3"}.record()
	if _, ok, err := kv.Get(key); !ok || err != nil {
		t.Fatalf("no row at %q (err %v)", key, err)
	}
	if err := kv.Put(key, []byte{0xff}); err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	e, err = Open(cfg)
	if err == nil {
		e.Close()
		t.Fatal("Open accepted an archive with a corrupt pages row")
	}
	if msg := err.Error(); !strings.Contains(msg, `"pages"`) || !strings.Contains(msg, `key "http://zoo.example/p3"`) {
		t.Fatalf("Open's error %q does not name the table and the key", msg)
	}
}

// TestPageIDNamedTwiceFailsOpen: a pages record is keyed by its url, so
// nothing but reload stops two records from naming one id. Open refuses
// such an archive, naming the id and both urls, rather than keep whichever
// record the scan met last; it refuses a record naming id 0 too, an id the
// engine never hands out. The archive is written straight through the
// kvstore, stamped with this build's format, as no engine writes one.
func TestPageIDNamedTwiceFailsOpen(t *testing.T) {
	for _, tc := range []struct {
		name  string
		pages []pageRow
		want  []string
	}{
		{"duplicate id", []pageRow{
			{id: 1, url: "http://zoo.example/aardvark"},
			{id: 2, url: "http://zoo.example/okapi"},
			{id: 2, url: "http://zoo.example/tapir"},
		}, []string{"page id 2", `"http://zoo.example/okapi"`, `"http://zoo.example/tapir"`}},
		{"id 0", []pageRow{{id: 0, url: "http://zoo.example/zero"}}, []string{`"pages"`, `key "http://zoo.example/zero"`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			kv, err := kvstore.Open(dir, refusedKV)
			if err != nil {
				t.Fatal(err)
			}
			rows := []kvstore.KV{{Key: []byte(formatKey), Value: []byte(format)}}
			for _, r := range tc.pages {
				k, v := r.record()
				rows = append(rows, kvstore.KV{Key: k, Value: v})
			}
			if err := kv.PutBatch(rows); err != nil {
				t.Fatal(err)
			}
			if err := kv.Close(); err != nil {
				t.Fatal(err)
			}
			e, err := Open(Config{Dir: dir, Source: oneSource{}})
			if err == nil {
				e.Close()
				t.Fatal("Open accepted the archive")
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("Open's error %q does not name %s", err, want)
				}
			}
		})
	}
}

// TestUnfetchedVisitIsRefetchedAfterReopen: the event queue is memory-only,
// so a visited or bookmarked page whose fetch did not happen in one life
// (here the source lacked it) is queued again by the next Open, and an
// archive with nothing missing queues nothing.
func TestUnfetchedVisitIsRefetchedAfterReopen(t *testing.T) {
	page := Content{URL: "http://zoo.example/okapi", Title: "Okapi", Text: "okapi rainforest giraffid"}
	for _, how := range []string{"visited", "bookmarked"} {
		t.Run(how, func(t *testing.T) {
			cfg := Config{Dir: t.TempDir(), Source: oneSource{}}
			e, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.RegisterUser(1, "alice")
			search := func() []PageInfo { return e.Search(1, "okapi", 5) }
			if how == "visited" {
				err = e.RecordVisit(1, page.URL, "", tBase, events.Community)
			} else {
				err = e.AddBookmark(1, page.URL, "/animals", tBase)
				// A bookmark alone puts the page in no user's search
				// scope, so read the index itself.
				search = func() []PageInfo {
					hits := e.idx.Search("okapi", 5, textindex.BM25)
					e.mu.RLock()
					defer e.mu.RUnlock()
					var out []PageInfo
					for _, h := range hits {
						out = append(out, e.pageInfoLocked(h.Doc, h.Score))
					}
					return out
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			e.DrainBackground()
			if st := e.Status(); st.PagesFetched != 0 || st.PagesIndexed != 0 {
				t.Fatalf("life 1 fetched a page its source lacks: %+v", st)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}

			cfg.Source = oneSource{page}
			e, err = Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.DrainBackground()
			if hits := search(); len(hits) != 1 || hits[0].URL != page.URL || hits[0].Title != page.Title {
				t.Fatalf("page not searchable after reopen: %v", hits)
			}
			if got := e.Status().PagesFetched; got != 1 {
				t.Fatalf("PagesFetched = %d after reopen, want 1", got)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}

			e, err = Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if p := e.Pressure(); p.QueueDepth != 0 || e.pushed.Load() != 0 {
				t.Fatalf("a complete archive re-queued work at open: depth %d, pushed %d", p.QueueDepth, e.pushed.Load())
			}
			if len(search()) != 1 {
				t.Fatal("refetched page did not survive the next restart")
			}
		})
	}
}
