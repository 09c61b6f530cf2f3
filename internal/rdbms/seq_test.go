package rdbms

import (
	"fmt"
	"sync"
	"testing"

	"memex/internal/kvstore"
)

// seqPages returns n rows without ids, for InsertSeq to number.
func seqPages(tag string, n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = samplePage(int64(i))
		delete(rows[i], "id")
		rows[i]["url"] = String(fmt.Sprintf("http://example.com/%s/%d", tag, i))
	}
	return rows
}

// TestInsertSeqAssignsConsecutiveIDsInOneCommit: ids follow argument order
// from where the sequence stands, every row and its index entries are
// readable, and the whole batch — sequence value included — is one commit.
func TestInsertSeqAssignsConsecutiveIDsInOneCommit(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable(pagesSchema())
	if id, _ := tbl.NextID(); id != 1 {
		t.Fatalf("first NextID = %d, want 1", id)
	}
	rows := seqPages("a", 5)
	before := db.KV().Stats().Commits
	first, err := tbl.InsertSeq(rows...)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.KV().Stats().Commits - before; got != 1 {
		t.Fatalf("InsertSeq of 5 indexed rows took %d commits, want 1", got)
	}
	if first != 2 {
		t.Fatalf("first id = %d, want 2 (NextID took 1)", first)
	}
	for i, r := range rows {
		want := first + int64(i)
		if got := r.MustInt("id"); got != want {
			t.Fatalf("row %d was numbered %d, want %d", i, got, want)
		}
		stored, ok, err := tbl.Get(Int(want))
		if err != nil || !ok || !stored["url"].Equal(r["url"]) {
			t.Fatalf("Get(%d) = %v, %v, %v; want url %v", want, stored, ok, err, r["url"])
		}
		hits, err := tbl.Select().Where(Eq("url", r["url"])).Rows()
		if err != nil || len(hits) != 1 || hits[0].MustInt("id") != want {
			t.Fatalf("url index lookup for row %d = %v, %v", i, hits, err)
		}
	}
	if id, _ := tbl.NextID(); id != 7 {
		t.Fatalf("NextID after the batch = %d, want 7", id)
	}
	if first, err := tbl.InsertSeq(); err != nil || first != 8 {
		t.Fatalf("InsertSeq of nothing = %d, %v; want the next id 8 and no error", first, err)
	}
	if id, _ := tbl.NextID(); id != 8 {
		t.Fatalf("an empty InsertSeq moved the sequence: NextID = %d, want 8", id)
	}
}

// TestInsertSeqSurvivesReopen: the sequence value rides in the batch, so a
// new process continues above every id handed out, whichever call did.
func TestInsertSeqSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, kvstore.Options{Sync: kvstore.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.CreateTable(pagesSchema())
	if _, err := tbl.InsertSeq(seqPages("a", 3)...); err != nil {
		t.Fatal(err)
	}
	tbl.NextID() // 4
	db.Close()

	db, err = Open(dir, kvstore.Options{Sync: kvstore.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, _ = db.Table("pages")
	first, err := tbl.InsertSeq(seqPages("b", 2)...)
	if err != nil || first != 5 {
		t.Fatalf("first id after reopen = %d, %v; want 5", first, err)
	}
	if n, _ := tbl.Count(); n != 5 {
		t.Fatalf("Count = %d, want 5", n)
	}
}

// TestInsertSeqDuplicateWritesNothing: when an id the batch would assign is
// already taken, no row of the batch lands and the sequence stays put.
func TestInsertSeqDuplicateWritesNothing(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable(pagesSchema())
	if _, err := tbl.InsertSeq(seqPages("a", 2)...); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(samplePage(5)); err != nil { // an explicit id above the sequence
		t.Fatal(err)
	}
	before := db.KV().Stats().Commits
	if _, err := tbl.InsertSeq(seqPages("b", 4)...); err == nil { // would assign 3, 4, 5, 6
		t.Fatal("InsertSeq over a taken id succeeded")
	}
	if got := db.KV().Stats().Commits - before; got != 0 {
		t.Fatalf("the refused batch made %d commits", got)
	}
	if n, _ := tbl.Count(); n != 3 {
		t.Fatalf("Count = %d after the refused batch, want 3", n)
	}
	for _, id := range []int64{3, 4, 6} {
		if _, ok, _ := tbl.Get(Int(id)); ok {
			t.Fatalf("row %d of the refused batch was written", id)
		}
	}
	if first, err := tbl.InsertSeq(seqPages("c", 2)...); err != nil || first != 3 {
		t.Fatalf("InsertSeq after the refusal = %d, %v; want 3: the sequence must not have moved", first, err)
	}
}

// TestInsertSeqNeedsIntKey: only an integer key can be numbered.
func TestInsertSeqNeedsIntKey(t *testing.T) {
	db := openDB(t)
	tbl, err := db.CreateTable(Schema{
		Name:    "bykey",
		Columns: []Column{{Name: "k", Type: TString}, {Name: "v", Type: TInt}},
		Key:     "k",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.InsertSeq(Row{"v": Int(1)}); err == nil {
		t.Fatal("InsertSeq numbered a string key")
	}
}

// TestNextIDAndInsertSeqShareOneSequence: 8 goroutines mixing both calls
// never see the same id twice, and the ids leave no gap.
func TestNextIDAndInsertSeqShareOneSequence(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable(pagesSchema())
	const workers, rounds = 8, 40
	ids := make([][]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if (w+i)%2 == 0 {
					id, err := tbl.NextID()
					if err != nil {
						t.Error(err)
						return
					}
					ids[w] = append(ids[w], id)
					continue
				}
				rows := seqPages(fmt.Sprintf("w%d/%d", w, i), 1+i%3)
				first, err := tbl.InsertSeq(rows...)
				if err != nil {
					t.Error(err)
					return
				}
				for j := range rows {
					ids[w] = append(ids[w], first+int64(j))
				}
			}
		}(w)
	}
	wg.Wait()
	seen := map[int64]bool{}
	for _, got := range ids {
		for _, id := range got {
			if seen[id] {
				t.Fatalf("id %d handed out twice", id)
			}
			seen[id] = true
		}
	}
	for id := int64(1); id <= int64(len(seen)); id++ {
		if !seen[id] {
			t.Fatalf("ids 1..%d have a gap at %d", len(seen), id)
		}
	}
}

// BenchmarkInsertSeq sets the one-commit row write beside the two-commit
// pair it replaced, for one row and for a fetched page's six out-links.
func BenchmarkInsertSeq(b *testing.B) {
	for _, bc := range []struct {
		name string
		rows int
		seq  bool
	}{{"NextIDThenInsert/rows=1", 1, false}, {"InsertSeq/rows=1", 1, true}, {"InsertSeq/rows=6", 6, true}} {
		b.Run(bc.name, func(b *testing.B) {
			db, _ := Open(b.TempDir(), kvstore.Options{Sync: kvstore.SyncGroup})
			defer db.Close()
			tbl, _ := db.CreateTable(pagesSchema())
			before := db.KV().Stats().Commits
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows := seqPages(fmt.Sprint(i), bc.rows)
				if bc.seq {
					if _, err := tbl.InsertSeq(rows...); err != nil {
						b.Fatal(err)
					}
					continue
				}
				id, _ := tbl.NextID()
				rows[0]["id"] = Int(id)
				if err := tbl.Insert(rows[0]); err != nil {
					b.Fatal(err)
				}
			}
			n := float64(b.N * bc.rows)
			b.ReportMetric(float64(db.KV().Stats().Commits-before)/n, "commits/row")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/row")
		})
	}
}
