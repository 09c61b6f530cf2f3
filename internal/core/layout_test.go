package core

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"memex/internal/events"
	"memex/internal/kvstore"
	"memex/internal/rdbms"
	"memex/internal/textindex"
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

// TestOpenRefusesForeignSchema: a directory whose generic-row-layer catalog
// holds a pages schema (here the one before the fetched column and the url
// index were dropped) is refused at Open, naming its catalog key, instead
// of failing every page insert later.
func TestOpenRefusesForeignSchema(t *testing.T) {
	dir := t.TempDir()
	opts := kvstore.Options{Sync: kvstore.SyncGroup}
	db, err := rdbms.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.CreateTable(rdbms.Schema{
		Name: "pages",
		Columns: []rdbms.Column{
			{Name: "id", Type: rdbms.TInt},
			{Name: "url", Type: rdbms.TString},
			{Name: "title", Type: rdbms.TString},
			{Name: "fetched", Type: rdbms.TBool},
		},
		Key:     "id",
		Indexes: []string{"url"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	e, err := Open(Config{Dir: dir, Source: oneSource{}, KV: opts})
	if err == nil {
		e.Close()
		t.Fatal("Open accepted an archive with a foreign pages schema")
	}
	for _, want := range []string{`"cat/pages"`, "generic row layer"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

// TestOpenRefusesRowLayerArchive: an archive the generic row layer wrote —
// the four tables' catalog, a sequence, rows and the visits.user index —
// is refused at Open with an error naming one of its keys, and its files
// are byte for byte what they were. A key of any one of the layer's four
// keyspaces alone is refused the same way.
func TestOpenRefusesRowLayerArchive(t *testing.T) {
	opts := kvstore.Options{Sync: kvstore.SyncGroup}
	rowLayer := func(dir string) error {
		db, err := rdbms.Open(dir, opts)
		if err != nil {
			return err
		}
		defer db.Close()
		tables := []struct {
			schema rdbms.Schema
			row    rdbms.Row
		}{
			{rdbms.Schema{Name: "pages", Key: "id", Columns: []rdbms.Column{
				{Name: "id", Type: rdbms.TInt}, {Name: "url", Type: rdbms.TString}, {Name: "title", Type: rdbms.TString},
			}}, rdbms.Row{"id": rdbms.Int(1), "url": rdbms.String("http://zoo.example/okapi"), "title": rdbms.String("Okapi")}},
			{rdbms.Schema{Name: "visits", Key: "id", Indexes: []string{"user"}, Columns: []rdbms.Column{
				{Name: "id", Type: rdbms.TInt}, {Name: "user", Type: rdbms.TInt}, {Name: "page", Type: rdbms.TInt},
				{Name: "ref", Type: rdbms.TInt}, {Name: "time", Type: rdbms.TTime}, {Name: "privacy", Type: rdbms.TInt},
			}}, rdbms.Row{"user": rdbms.Int(1), "page": rdbms.Int(1), "ref": rdbms.Int(0), "time": rdbms.Time(tBase), "privacy": rdbms.Int(int64(events.Community))}},
			{rdbms.Schema{Name: "bookmarks", Key: "id", Columns: []rdbms.Column{
				{Name: "id", Type: rdbms.TInt}, {Name: "user", Type: rdbms.TInt}, {Name: "page", Type: rdbms.TInt},
				{Name: "folder", Type: rdbms.TString}, {Name: "time", Type: rdbms.TTime},
			}}, rdbms.Row{"id": rdbms.Int(1), "user": rdbms.Int(1), "page": rdbms.Int(1), "folder": rdbms.String("/animals"), "time": rdbms.Time(tBase)}},
			{rdbms.Schema{Name: "users", Key: "id", Columns: []rdbms.Column{
				{Name: "id", Type: rdbms.TInt}, {Name: "name", Type: rdbms.TString},
			}}, rdbms.Row{"id": rdbms.Int(1), "name": rdbms.String("alice")}},
		}
		for _, tb := range tables {
			tbl, err := db.CreateTable(tb.schema)
			if err != nil {
				return err
			}
			if _, numbered := tb.row["id"]; !numbered {
				id, err := tbl.NextID() // writes seq/visits
				if err != nil {
					return err
				}
				tb.row["id"] = rdbms.Int(id)
			}
			if err := tbl.Insert(tb.row); err != nil {
				return err
			}
		}
		return nil
	}
	oneKey := func(key string) func(string) error {
		return func(dir string) error {
			kv, err := kvstore.Open(dir, opts)
			if err != nil {
				return err
			}
			if err := kv.Put([]byte(key), []byte{1}); err != nil {
				kv.Close()
				return err
			}
			return kv.Close()
		}
	}
	files := func(dir string) map[string][]byte {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for _, ent := range entries {
			b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[ent.Name()] = b
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		build func(string) error
		key   string
	}{
		{"row layer", rowLayer, "cat/bookmarks"},
		{"sequence", oneKey("seq/visits"), "seq/visits"},
		{"row", oneKey("tbl/\x00\x00\x00\x01/x"), `tbl/\x00\x00\x00\x01/x`},
		{"index", oneKey("idx/\x00\x00\x00\x01/\x00\x01/x"), `idx/\x00\x00\x00\x01/\x00\x01/x`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := tc.build(dir); err != nil {
				t.Fatal(err)
			}
			before := files(dir)
			e, err := Open(Config{Dir: dir, Source: oneSource{}, KV: opts})
			if err == nil {
				e.Close()
				t.Fatal("Open accepted an archive of the generic row layer")
			}
			if msg := err.Error(); !strings.Contains(msg, `"`+tc.key+`"`) || !strings.Contains(msg, "generic row layer") {
				t.Fatalf("Open's error %q does not name the key %q and the layer", msg, tc.key)
			}
			if after := files(dir); !reflect.DeepEqual(after, before) {
				t.Fatal("the refused archive's files changed")
			}
		})
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
				id, err := e.ensurePage(fmt.Sprintf("http://fresh.example/p%d", u))
				if err != nil {
					t.Error(err)
					return
				}
				ids[w][u] = id
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

	kv, err := kvstore.Open(e.cfg.Dir, e.cfg.KV)
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
	want := map[string]int{visitsPrefix: visits, bookmarksPrefix: 1, usersPrefix: 1, pagesPrefix: known, "vc/": count["vc/"]}
	if !reflect.DeepEqual(count, want) {
		t.Fatalf("records by keyspace %v, want %v", count, want)
	}
}

// TestCorruptPageRowFailsOpen: a pages row that does not decode is an Open
// error naming the table and the key. A scan that skipped it forgot the
// page, and the next visit gave its URL a new id.
func TestCorruptPageRowFailsOpen(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), Source: oneSource{}, KV: kvstore.Options{Sync: kvstore.SyncGroup}, VersionGCInterval: -1}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if id, err := e.ensurePage(fmt.Sprintf("http://zoo.example/p%d", i)); err != nil || id != int64(i) {
			t.Fatalf("page %d got id %d (err %v)", i, id, err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	kv, err := kvstore.Open(cfg.Dir, cfg.KV)
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
// kvstore, as no engine writes one.
func TestPageIDNamedTwiceFailsOpen(t *testing.T) {
	opts := kvstore.Options{Sync: kvstore.SyncGroup}
	for _, tc := range []struct {
		name  string
		pages []pageRow
		want  []string
	}{
		{"duplicate id", []pageRow{
			{id: 1, url: "http://zoo.example/aardvark"},
			{id: 2, url: "http://zoo.example/okapi", title: "Okapi"},
			{id: 2, url: "http://zoo.example/tapir"},
		}, []string{"page id 2", `"http://zoo.example/okapi"`, `"http://zoo.example/tapir"`}},
		{"id 0", []pageRow{{id: 0, url: "http://zoo.example/zero"}}, []string{`"pages"`, `key "http://zoo.example/zero"`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			kv, err := kvstore.Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			var rows []kvstore.KV
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
			e, err := Open(Config{Dir: dir, Source: oneSource{}, KV: opts})
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

// TestIDKeyedPagesRefused: an archive whose pages records are keyed by id
// (p/<id> → url length ‖ url ‖ title, the layout before pages were keyed
// by url) is refused at Open with an error naming its key and the retired
// layout, and its files are byte for byte what they were. Opening it would
// read no pages and hand every visited url a new id.
func TestIDKeyedPagesRefused(t *testing.T) {
	dir := t.TempDir()
	opts := kvstore.Options{Sync: kvstore.SyncGroup}
	kv, err := kvstore.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	const url = "http://zoo.example/okapi"
	key := appendOrdered([]byte("p/"), 1)
	if err := kv.Put(key, append(binary.AppendUvarint(nil, uint64(len(url))), url+"Okapi"...)); err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	before := dirBytes(t, dir)
	e, err := Open(Config{Dir: dir, Source: oneSource{}, KV: opts})
	if err == nil {
		e.Close()
		t.Fatal("Open accepted an archive of id-keyed pages")
	}
	if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("%q", key)) || !strings.Contains(msg, "id-keyed pages layout") {
		t.Fatalf("Open's error %q does not name the key %q and the layout", msg, key)
	}
	if after := dirBytes(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("the refused archive's files changed")
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
			cfg := Config{Dir: t.TempDir(), Source: oneSource{}, KV: kvstore.Options{Sync: kvstore.SyncGroup}}
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
