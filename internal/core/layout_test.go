package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"memex/internal/events"
	"memex/internal/kvstore"
	"memex/internal/rdbms"
)

// TestOpenRefusesForeignSchema: a directory whose catalog holds another
// pages schema (here the one before the fetched column and the url index
// were dropped) is refused at Open, by name, instead of failing every
// page insert later.
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
	for _, want := range []string{`"pages"`, "has column fetched", "has index url"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
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
	if rows, err := e.pages.Count(); err != nil || rows != urls {
		t.Fatalf("pages table holds %d rows (err %v), want %d", rows, err, urls)
	}
}

// TestDurableLayoutHasNoUnreadIndex: the only index entries an archive
// holds are the visits table's user index, one per visit — the index
// windowQuery reads.
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
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	kv, err := kvstore.Open(e.cfg.Dir, e.cfg.KV)
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	// The keyspace is documented in rdbms/db.go: cat/<table> holds the
	// table id and schema, idx/<tid>/<col#>/… the index entries.
	raw, ok, err := kv.Get([]byte("cat/visits"))
	if err != nil || !ok {
		t.Fatalf("no catalog entry for visits (err %v)", err)
	}
	var ent struct {
		ID     uint32
		Schema rdbms.Schema
	}
	if err := json.Unmarshal(raw, &ent); err != nil {
		t.Fatal(err)
	}
	userCol := -1
	for i, col := range ent.Schema.Columns {
		if col.Name == "user" {
			userCol = i
		}
	}
	want := []byte("idx/")
	want = binary.BigEndian.AppendUint32(want, ent.ID)
	want = append(want, '/')
	want = binary.BigEndian.AppendUint16(want, uint16(userCol))
	want = append(want, '/')
	n, foreign := 0, 0
	err = kv.ScanPrefix([]byte("idx/"), func(k, _ []byte) bool {
		if !strings.HasPrefix(string(k), string(want)) {
			if foreign == 0 {
				t.Errorf("index entry %q is not under visits.user (%q)", k, want)
			}
			foreign++
		}
		n++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if foreign != 0 || n != visits {
		t.Fatalf("%d index entries, %d of them outside visits.user; want one per visit (%d)", n, foreign, visits)
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
	// The row key is tbl/<tid>/<pk-ordered> (rdbms/db.go): an int key is
	// big-endian with its sign bit flipped.
	raw, _, err := kv.Get([]byte("cat/pages"))
	var ent struct{ ID uint32 }
	if err == nil {
		err = json.Unmarshal(raw, &ent)
	}
	if err != nil {
		t.Fatal(err)
	}
	key := binary.BigEndian.AppendUint32([]byte("tbl/"), ent.ID)
	key = binary.BigEndian.AppendUint64(append(key, '/'), 3^(1<<63))
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
	if msg := err.Error(); !strings.Contains(msg, `"pages"`) || !strings.Contains(msg, "key 3") {
		t.Fatalf("Open's error %q does not name the table and the key", msg)
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
			searcher := int64(1)
			if how == "visited" {
				err = e.RecordVisit(1, page.URL, "", tBase, events.Community)
			} else {
				err = e.AddBookmark(1, page.URL, "/animals", tBase)
				searcher = 0 // a bookmark alone does not put a page in the user's search scope
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
			if hits := e.Search(searcher, "okapi", 5); len(hits) != 1 || hits[0].URL != page.URL || hits[0].Title != page.Title {
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
			if len(e.Search(searcher, "okapi", 5)) != 1 {
				t.Fatal("refetched page did not survive the next restart")
			}
		})
	}
}
