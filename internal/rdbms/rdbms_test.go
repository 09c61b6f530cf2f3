package rdbms

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"memex/internal/kvstore"
)

func openDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), kvstore.Options{Sync: kvstore.SyncGroup})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// rows runs q and returns every matching row.
func rows(t *testing.T, q *Query) []Row {
	t.Helper()
	var out []Row
	if err := q.Each(func(r Row) bool { out = append(out, r); return true }); err != nil {
		t.Fatal(err)
	}
	return out
}

func pagesSchema() Schema {
	return Schema{
		Name: "pages",
		Columns: []Column{
			{Name: "id", Type: TInt},
			{Name: "url", Type: TString},
			{Name: "title", Type: TString},
			{Name: "fetched", Type: TTime},
			{Name: "score", Type: TFloat},
			{Name: "public", Type: TBool},
		},
		Key:     "id",
		Indexes: []string{"url", "score"},
	}
}

func TestSchemaValidate(t *testing.T) {
	s := pagesSchema()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	bad := []Schema{
		{Name: "", Columns: []Column{{Name: "a", Type: TInt}}, Key: "a"},
		{Name: "x", Key: "a"},
		{Name: "x", Columns: []Column{{Name: "a", Type: TInt}, {Name: "a", Type: TInt}}, Key: "a"},
		{Name: "x", Columns: []Column{{Name: "a", Type: TInt}}, Key: "missing"},
		{Name: "x", Columns: []Column{{Name: "a", Type: TFloat}}, Key: "a"}, // float key
		{Name: "x", Columns: []Column{{Name: "a", Type: TInt}}, Key: "a", Indexes: []string{"zz"}},
		{Name: "x", Columns: []Column{{Name: "a", Type: TInt}, {Name: "b", Type: TBytes}}, Key: "a", Indexes: []string{"b"}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schema %d accepted", i)
		}
	}
}

func samplePage(id int64) Row {
	return Row{
		"id":      Int(id),
		"url":     String(fmt.Sprintf("http://example.com/p%d", id)),
		"title":   String(fmt.Sprintf("Page %d", id)),
		"fetched": Time(time.Unix(1000000+id, 0).UTC()),
		"score":   Float(float64(id) / 10),
		"public":  Bool(id%2 == 0),
	}
}

func TestInsertGet(t *testing.T) {
	db := openDB(t)
	tbl, err := db.CreateTable(pagesSchema())
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if err := tbl.Insert(samplePage(1)); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	r, ok, err := tbl.Get(Int(1))
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if r.MustString("url") != "http://example.com/p1" {
		t.Fatalf("url = %q", r.MustString("url"))
	}
	if r.MustFloat("score") != 0.1 {
		t.Fatalf("score = %v", r.MustFloat("score"))
	}
	if !r.MustTime("fetched").Equal(time.Unix(1000001, 0)) {
		t.Fatalf("fetched = %v", r.MustTime("fetched"))
	}
}

func TestInsertDuplicateFails(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable(pagesSchema())
	tbl.Insert(samplePage(1))
	if err := tbl.Insert(samplePage(1)); err == nil {
		t.Fatal("duplicate insert accepted")
	}
}

func TestUpdate(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable(pagesSchema())
	tbl.Insert(samplePage(1))
	ok, err := tbl.Update(Int(1), func(r Row) Row {
		r["score"] = Float(9.9)
		return r
	})
	if err != nil || !ok {
		t.Fatalf("Update: ok=%v err=%v", ok, err)
	}
	r, _, _ := tbl.Get(Int(1))
	if r.MustFloat("score") != 9.9 {
		t.Fatalf("score = %v", r.MustFloat("score"))
	}

	// Update of a missing row reports ok=false.
	ok, err = tbl.Update(Int(99), func(r Row) Row { return r })
	if err != nil || ok {
		t.Fatalf("Update missing: ok=%v err=%v", ok, err)
	}

	// Changing the PK inside Update is rejected.
	_, err = tbl.Update(Int(1), func(r Row) Row {
		r["id"] = Int(2)
		return r
	})
	if err == nil {
		t.Fatal("PK mutation in Update accepted")
	}
}

// TestIndexedRowChangesAreOneCommit: an Update that moves an indexed
// column writes the row and every index entry it touches as one kvstore
// commit, and leaves the index matching the rows.
func TestIndexedRowChangesAreOneCommit(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable(pagesSchema())
	for i := int64(1); i <= 3; i++ {
		tbl.Insert(samplePage(i))
	}
	lookup := func(url string) int {
		return len(rows(t, tbl.Select().Where(Eq("url", String(url)))))
	}
	before := db.KV().Stats().Commits
	if _, err := tbl.Update(Int(2), func(r Row) Row {
		r["url"], r["score"] = String("http://example.com/moved"), Float(7)
		return r
	}); err != nil {
		t.Fatal(err)
	}
	if got := db.KV().Stats().Commits - before; got != 1 {
		t.Fatalf("an Update moving two indexed columns took %d commits, want 1", got)
	}
	if lookup("http://example.com/p2") != 0 || lookup("http://example.com/moved") != 1 {
		t.Fatal("the url index does not follow the updated row")
	}
}

// TestCorruptRowIsAnError: a row that does not decode ends every plan
// that reaches it with an error naming the table and the key — never a
// shorter answer with a nil error.
func TestCorruptRowIsAnError(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable(pagesSchema())
	for i := int64(1); i <= 3; i++ {
		tbl.Insert(samplePage(i))
	}
	if err := db.KV().Put(tbl.rowKey(Int(3)), []byte{0xff}); err != nil {
		t.Fatal(err)
	}
	for name, q := range map[string]*Query{
		"scan":  tbl.Select(),
		"pk":    tbl.Select().Where(Eq("id", Int(3))),
		"index": tbl.Select().Where(Eq("score", Float(0.3))),
	} {
		n := 0
		err := q.Each(func(Row) bool { n++; return true })
		if err == nil {
			t.Fatalf("%s: %d rows and no error over a corrupt row", name, n)
		}
		if msg := err.Error(); !strings.Contains(msg, `"pages"`) || !strings.Contains(msg, "key 3") {
			t.Fatalf("%s: error %q does not name the table and the key", name, msg)
		}
	}
}

func TestQueryPlanSelection(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable(pagesSchema())
	cases := []struct {
		q    *Query
		want string
	}{
		{tbl.Select().Where(Eq("id", Int(3))), "pk"},
		{tbl.Select().Where(Eq("url", String("x"))), "index"},
		{tbl.Select().Where(Eq("score", Float(0.5))), "index"},
		{tbl.Select().Where(Eq("title", String("x"))), "scan"},
		{tbl.Select(), "scan"},
		// PK predicate preferred over secondary index.
		{tbl.Select().Where(Eq("url", String("x"))).Where(Eq("id", Int(1))), "pk"},
	}
	for i, c := range cases {
		if got, _ := c.q.plan(); got != c.want {
			t.Errorf("case %d: plan = %q, want %q", i, got, c.want)
		}
	}
}

func TestQueryResultsAllPlans(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable(pagesSchema())
	for i := int64(0); i < 50; i++ {
		if err := tbl.Insert(samplePage(i)); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	// PK equality.
	got := rows(t, tbl.Select().Where(Eq("id", Int(7))))
	if len(got) != 1 || got[0].MustInt("id") != 7 {
		t.Fatalf("pk eq got %v", got)
	}
	// Secondary index equality.
	got = rows(t, tbl.Select().Where(Eq("url", String("http://example.com/p33"))))
	if len(got) != 1 || got[0].MustInt("id") != 33 {
		t.Fatalf("index eq got %v", got)
	}
	// Full scan with filter.
	if got = rows(t, tbl.Select().Where(Eq("public", Bool(true)))); len(got) != 25 {
		t.Fatalf("scan filter got %d rows", len(got))
	}
	// Conjunction: the index drives, the filter applies.
	got = rows(t, tbl.Select().Where(Eq("score", Float(4.2))).Where(Eq("public", Bool(true))))
	if len(got) != 1 || got[0].MustInt("id") != 42 {
		t.Fatalf("conjunction got %v", got)
	}
	if got = rows(t, tbl.Select().Where(Eq("score", Float(4.1))).Where(Eq("public", Bool(true)))); len(got) != 0 {
		t.Fatalf("conjunction over an odd id got %v", got)
	}
}

// TestQueryOrderLimit: OrderBy sorts the whole result, and First — the one
// row limit the engine's callers need — takes its head.
func TestQueryOrderLimit(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable(pagesSchema())
	perm := rand.New(rand.NewSource(1)).Perm(30)
	for _, i := range perm {
		tbl.Insert(samplePage(int64(i)))
	}
	got := rows(t, tbl.Select().OrderBy("score", true))
	if len(got) != 30 {
		t.Fatalf("ordered query got %d rows", len(got))
	}
	if got[0].MustInt("id") != 29 || got[2].MustInt("id") != 27 {
		t.Fatalf("order desc got ids %d,%d,%d", got[0].MustInt("id"), got[1].MustInt("id"), got[2].MustInt("id"))
	}
	if top, ok, err := tbl.Select().OrderBy("score", true).First(); err != nil || !ok || top.MustInt("id") != 29 {
		t.Fatalf("First of the descending order = %v, %v, %v; want id 29", top, ok, err)
	}
	// Ascending PK scan order is the natural B+tree order.
	var ids []int64
	tbl.Select().Each(func(r Row) bool {
		ids = append(ids, r.MustInt("id"))
		return true
	})
	if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
		t.Fatal("full scan not in PK order")
	}
}

func TestNegativeIntKeysSortCorrectly(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable(Schema{
		Name:    "neg",
		Columns: []Column{{Name: "k", Type: TInt}, {Name: "v", Type: TString}},
		Key:     "k",
	})
	for _, k := range []int64{5, -3, 0, -100, 42} {
		tbl.Insert(Row{"k": Int(k), "v": String("x")})
	}
	var got []int64
	tbl.Select().Each(func(r Row) bool {
		got = append(got, r.MustInt("k"))
		return true
	})
	want := []int64{-100, -3, 0, 5, 42}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order got %v, want %v", got, want)
		}
	}
	if got := rows(t, tbl.Select().Where(Eq("k", Int(-3)))); len(got) != 1 || got[0].MustInt("k") != -3 {
		t.Fatalf("negative key lookup got %v", got)
	}
}

func TestStringPrimaryKey(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable(Schema{
		Name:    "users",
		Columns: []Column{{Name: "name", Type: TString}, {Name: "age", Type: TInt}},
		Key:     "name",
		Indexes: []string{"age"},
	})
	for _, n := range []string{"carol", "alice", "bob"} {
		tbl.Insert(Row{"name": String(n), "age": Int(int64(len(n)))})
	}
	r, ok, _ := tbl.Get(String("bob"))
	if !ok || r.MustInt("age") != 3 {
		t.Fatalf("get bob: %v ok=%v", r, ok)
	}
	if got := rows(t, tbl.Select().Where(Eq("age", Int(5)))); len(got) != 2 {
		t.Fatalf("age index got %d rows, want 2 (alice, carol)", len(got))
	}
}

func TestPersistenceAndCatalogReload(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, kvstore.Options{Sync: kvstore.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.CreateTable(pagesSchema())
	for i := int64(0); i < 20; i++ {
		tbl.Insert(samplePage(i))
	}
	db.Close()

	db2, err := Open(dir, kvstore.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	tbl2, err := db2.EnsureTable(pagesSchema())
	if err != nil {
		t.Fatalf("catalog lost: %v", err)
	}
	if tbl2.id != tbl.id {
		t.Fatalf("table id %d after reopen, was %d: the catalog entry was not kept", tbl2.id, tbl.id)
	}
	if n := len(rows(t, tbl2.Select())); n != 20 {
		t.Fatalf("%d rows after reopen, want 20", n)
	}
	if len(rows(t, tbl2.Select().Where(Eq("url", String("http://example.com/p7"))))) != 1 {
		t.Fatal("secondary index lost after reopen")
	}
}

func TestNextID(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable(pagesSchema())
	a, _ := tbl.NextID()
	b, _ := tbl.NextID()
	if a != 1 || b != 2 {
		t.Fatalf("NextID sequence: %d, %d", a, b)
	}
}

func TestRowCodecRoundTripQuick(t *testing.T) {
	s := pagesSchema()
	f := func(id int64, url, title string, sec int32, score float64, pub bool) bool {
		r := Row{
			"id":      Int(id),
			"url":     String(url),
			"title":   String(title),
			"fetched": Time(time.Unix(int64(sec), 0).UTC()),
			"score":   Float(score),
			"public":  Bool(pub),
		}
		blob, err := encodeRow(&s, r, nil)
		if err != nil {
			return false
		}
		got, err := decodeRow(&s, blob)
		if err != nil {
			return false
		}
		for k, v := range r {
			if !got[k].Equal(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestOrderedEncodingMonotone: byte order of encodeOrdered must match
// Value.Less across random values of every indexable type.
func TestOrderedEncodingMonotone(t *testing.T) {
	check := func(a, b Value) bool {
		ea := encodeOrdered(a, nil)
		eb := encodeOrdered(b, nil)
		cmp := string(ea) < string(eb)
		return cmp == a.Less(b) || a.Equal(b)
	}
	if err := quick.Check(func(a, b int64) bool {
		return check(Int(a), Int(b))
	}, nil); err != nil {
		t.Errorf("int: %v", err)
	}
	if err := quick.Check(func(a, b float64) bool {
		return check(Float(a), Float(b))
	}, nil); err != nil {
		t.Errorf("float: %v", err)
	}
	if err := quick.Check(func(a, b string) bool {
		return check(String(a), String(b))
	}, nil); err != nil {
		t.Errorf("string: %v", err)
	}
	// Embedded zero bytes exercise the escape path.
	if !check(String("ab"), String("ab\x00")) {
		t.Error("string escape: ab vs ab\\x00 misordered")
	}
	if !check(String("a\x00b"), String("a\x00c")) {
		t.Error("string escape: a\\x00b vs a\\x00c misordered")
	}
}

func TestTypeMismatchRejected(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable(pagesSchema())
	r := samplePage(1)
	r["score"] = String("not a float")
	if err := tbl.Insert(r); err == nil {
		t.Fatal("type mismatch accepted")
	}
	delete(r, "score")
	if err := tbl.Insert(r); err == nil {
		t.Fatal("missing column accepted")
	}
}

func TestEnsureTable(t *testing.T) {
	db := openDB(t)
	t1, err := db.EnsureTable(pagesSchema())
	if err != nil {
		t.Fatal(err)
	}
	t2, err := db.EnsureTable(pagesSchema())
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Fatal("EnsureTable created a second table")
	}

	// A stored schema that differs from the requested one is refused, and
	// the error names the table and what differs.
	other := pagesSchema()
	other.Columns = append(other.Columns[:3:3], other.Columns[4:]...) // no "fetched"
	other.Indexes = []string{"score"}                                 // no "url"
	_, err = db.EnsureTable(other)
	if err == nil {
		t.Fatal("EnsureTable accepted a schema that differs from the stored one")
	}
	for _, want := range []string{`"pages"`, "has column fetched TIME", "has index url"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	reordered := pagesSchema()
	reordered.Columns[1], reordered.Columns[2] = reordered.Columns[2], reordered.Columns[1]
	if _, err := db.EnsureTable(reordered); err == nil || !strings.Contains(err.Error(), "in another order") {
		t.Fatalf("reordered columns: err = %v", err)
	}
}

func BenchmarkInsertIndexed(b *testing.B) {
	db, _ := Open(b.TempDir(), kvstore.Options{Sync: kvstore.SyncGroup})
	defer db.Close()
	tbl, _ := db.CreateTable(pagesSchema())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Insert(samplePage(int64(i)))
	}
}

func BenchmarkPointLookup(b *testing.B) {
	db, _ := Open(b.TempDir(), kvstore.Options{Sync: kvstore.SyncGroup})
	defer db.Close()
	tbl, _ := db.CreateTable(pagesSchema())
	const n = 10000
	for i := 0; i < n; i++ {
		tbl.Insert(samplePage(int64(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Get(Int(int64(i % n)))
	}
}
