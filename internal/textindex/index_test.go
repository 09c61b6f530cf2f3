package textindex

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"memex/internal/text"
)

func seedIndex() *Index {
	ix := New(nil)
	ix.Add(1, "classical music symphonies by Beethoven and Mozart")
	ix.Add(2, "jazz music improvisation saxophone")
	ix.Add(3, "compiler optimization register allocation at Rice University")
	ix.Add(4, "classical guitar music lessons")
	ix.Add(5, "database systems storage manager transactions")
	return ix
}

func docsOf(hits []Hit) []int64 {
	out := make([]int64, len(hits))
	for i, h := range hits {
		out[i] = h.Doc
	}
	return out
}

func contains(hits []Hit, doc int64) bool {
	for _, h := range hits {
		if h.Doc == doc {
			return true
		}
	}
	return false
}

func TestBasicSearch(t *testing.T) {
	ix := seedIndex()
	for _, scoring := range []Scoring{TFIDF, BM25} {
		hits := ix.Search("classical music", 10, scoring)
		if len(hits) == 0 {
			t.Fatalf("scoring %v: no hits", scoring)
		}
		// Docs 1 and 4 match both terms; they must outrank docs 2 (music only).
		if !(hits[0].Doc == 1 || hits[0].Doc == 4) {
			t.Fatalf("scoring %v: top hit %v", scoring, hits[0])
		}
		if !contains(hits, 2) {
			t.Fatalf("scoring %v: disjunctive search missed doc 2: %v", scoring, docsOf(hits))
		}
		if contains(hits, 5) {
			t.Fatalf("scoring %v: unrelated doc 5 matched", scoring)
		}
	}
}

func TestSearchRankingOrder(t *testing.T) {
	ix := seedIndex()
	hits := ix.Search("compiler optimization", 10, BM25)
	if len(hits) != 1 || hits[0].Doc != 3 {
		t.Fatalf("hits = %v", hits)
	}
	// Scores descending.
	hits = ix.Search("music", 10, BM25)
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Fatalf("scores not descending: %v", hits)
		}
	}
}

func TestTopKLimit(t *testing.T) {
	ix := seedIndex()
	hits := ix.Search("music", 2, TFIDF)
	if len(hits) != 2 {
		t.Fatalf("k=2 got %d hits", len(hits))
	}
}

func TestEmptyAndStopwordQueries(t *testing.T) {
	ix := seedIndex()
	if hits := ix.Search("", 5, BM25); hits != nil {
		t.Fatal("empty query matched")
	}
	if hits := ix.Search("the and of", 5, BM25); hits != nil {
		t.Fatal("stopword query matched")
	}
	if hits := ix.Search("music", 0, BM25); hits != nil {
		t.Fatal("k=0 returned hits")
	}
}

// TestReAddFirstWriteWins pins the append-only contract: a document is
// indexed once, so adding its id again — with the same or different
// content — changes no posting list, document count or score. (The engine
// claims each page before indexing it; a replace would need a doc→terms
// transpose to find the old postings.)
func TestReAddFirstWriteWins(t *testing.T) {
	ix := seedIndex()
	postings := func() [][]Posting {
		out := make([][]Posting, len(ix.postings))
		for id, pl := range ix.postings {
			out[id] = append([]Posting(nil), pl...)
		}
		return out
	}
	before, terms := postings(), ix.Terms()
	jazz, music := ix.Search("jazz", 5, BM25), ix.Search("music", 5, TFIDF)

	ix.Add(2, "jazz music improvisation saxophone")
	ix.Add(2, "cooking recipes pasta")

	if !reflect.DeepEqual(postings(), before) || ix.Terms() != terms {
		t.Fatal("re-add changed the posting lists")
	}
	if ix.Docs() != 5 {
		t.Fatalf("Docs = %d, want 5", ix.Docs())
	}
	if hits := ix.Search("pasta", 5, BM25); len(hits) != 0 {
		t.Fatalf("re-added content became searchable: %v", docsOf(hits))
	}
	if got := ix.Search("jazz", 5, BM25); !reflect.DeepEqual(got, jazz) {
		t.Fatalf("BM25 scores moved: %v -> %v", jazz, got)
	}
	if got := ix.Search("music", 5, TFIDF); !reflect.DeepEqual(got, music) {
		t.Fatalf("TFIDF scores moved: %v -> %v", music, got)
	}
}

// TestTFIDFMatchesCorpus checks the index against the reference
// statistics: weighting a vector by the index's own N and posting-list
// lengths is bit-identical to text.Corpus counting the same documents.
func TestTFIDFMatchesCorpus(t *testing.T) {
	docs := []string{
		"classical music symphonies by Beethoven and Mozart",
		"jazz music improvisation saxophone music",
		"classical guitar music lessons",
		"",
	}
	dict := text.NewDict()
	ix := New(dict)
	corp := text.NewCorpus()
	var vecs []text.Vector
	for i, d := range docs {
		ix.Add(int64(i+1), d)
		v := text.VectorFromText(dict, d)
		corp.AddDoc(v)
		vecs = append(vecs, v)
	}
	for i, v := range vecs {
		if got, want := ix.TFIDF(v), corp.TFIDF(v); !reflect.DeepEqual(got, want) {
			t.Fatalf("doc %d: index weights %v, corpus weights %v", i+1, got, want)
		}
	}
}

func TestStemmedMatching(t *testing.T) {
	ix := New(nil)
	ix.Add(1, "optimizing compilers")
	hits := ix.Search("compiler optimization", 5, BM25)
	if len(hits) != 1 {
		t.Fatalf("stemmed match failed: %v", hits)
	}
}

func TestLargeIndexConsistency(t *testing.T) {
	ix := New(nil)
	rng := rand.New(rand.NewSource(11))
	vocab := []string{"music", "jazz", "classical", "compiler", "database", "travel", "cycling", "news", "crawler", "hypertext"}
	docTerms := make(map[int64]map[string]bool)
	for d := int64(0); d < 500; d++ {
		var content string
		terms := map[string]bool{}
		for i := 0; i < 5+rng.Intn(20); i++ {
			w := vocab[rng.Intn(len(vocab))]
			content += w + " "
			terms[w] = true
		}
		ix.Add(d, content)
		docTerms[d] = terms
	}
	// Every doc containing "jazz" must be returned with a large enough k.
	hits := ix.Search("jazz", 1000, BM25)
	got := map[int64]bool{}
	for _, h := range hits {
		got[h.Doc] = true
	}
	for d, terms := range docTerms {
		if terms["jazz"] != got[d] {
			t.Fatalf("doc %d: in-index=%v returned=%v", d, terms["jazz"], got[d])
		}
	}
}

func BenchmarkIndexAdd(b *testing.B) {
	ix := New(nil)
	doc := "memex archives community browsing trails mining topical themes hierarchical classification clustering hypertext"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Add(int64(i), doc)
	}
}

func BenchmarkSearchBM25(b *testing.B) {
	ix := New(nil)
	rng := rand.New(rand.NewSource(5))
	vocab := make([]string, 200)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("term%c%c", 'a'+i%26, 'a'+(i/26)%26)
	}
	for d := int64(0); d < 5000; d++ {
		var content string
		for i := 0; i < 30; i++ {
			content += vocab[rng.Intn(len(vocab))] + " "
		}
		ix.Add(d, content)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search("termaa termbb termcc", 10, BM25)
	}
}

// TestSearchSumsInAFixedOrder: a document's score adds its per-term scores
// in the query terms' sorted order. The fixture's document 2 is one where
// the order shows in the last bits — (alpha+beta)+gamma and
// (alpha+gamma)+beta differ — so summing in map order would answer the
// same query with different scores from call to call, and could swap a
// tie at rank k.
func TestSearchSumsInAFixedOrder(t *testing.T) {
	ix := New(nil)
	for i, d := range []string{
		"alpha beta gamma",
		"alpha alpha beta gamma gamma gamma delta",
		"beta delta epsilon",
		"gamma epsilon zeta alpha",
		"alpha beta beta gamma zeta zeta zeta",
	} {
		ix.Add(int64(i+1), d)
	}
	scoreOf := func(hits []Hit, doc int64) float64 {
		for _, h := range hits {
			if h.Doc == doc {
				return h.Score
			}
		}
		t.Fatalf("doc %d not in %v", doc, hits)
		return 0
	}
	a := scoreOf(ix.Search("alpha", 10, BM25), 2)
	b := scoreOf(ix.Search("beta", 10, BM25), 2)
	c := scoreOf(ix.Search("gamma", 10, BM25), 2)
	if (a+b)+c == (a+c)+b {
		t.Fatalf("fixture lost its point: (a+b)+c = (a+c)+b = %v", (a+b)+c)
	}
	want := (a + b) + c
	for i := 0; i < 200; i++ {
		if got := scoreOf(ix.Search("gamma beta alpha", 10, BM25), 2); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: doc 2 scores %v, want the sorted-order sum %v", i, got, want)
		}
	}
}

// refIndex is the index as it stood with doc-sorted posting lists: each
// insert a binary search and a slice insert, so a list's order is the
// documents' order whatever order they arrived in. Kept as the reference
// the append-only lists must answer equal to.
type refIndex struct {
	dict     *text.Dict
	postings map[int32][]refPosting
	docLen   map[int64]int
	totalLen int64
}

// refPosting is a posting as it stood before ordinals: the document's id.
type refPosting struct {
	Doc int64
	TF  int32
}

func (r *refIndex) add(doc int64, v text.Vector) {
	total := 0
	for i, id := range v.IDs {
		n := int(v.Weights[i])
		pl := r.postings[id]
		at := sort.Search(len(pl), func(i int) bool { return pl[i].Doc >= doc })
		r.postings[id] = slices.Insert(pl, at, refPosting{Doc: doc, TF: int32(n)})
		total += n
	}
	r.docLen[doc] = total
	r.totalLen += int64(total)
}

func (r *refIndex) search(query string, k int, scoring Scoring) []Hit {
	terms := text.Terms(query)
	if len(terms) == 0 {
		return nil
	}
	slices.Sort(terms)
	nDocs := len(r.docLen)
	avgLen := float64(r.totalLen) / float64(nDocs)
	scores := map[int64]float64{}
	for i := 0; i < len(terms); {
		term, qn := terms[i], 0
		for ; i < len(terms) && terms[i] == term; i++ {
			qn++
		}
		id, ok := r.dict.Lookup(term)
		if !ok {
			continue
		}
		pl := r.postings[id]
		df := float64(len(pl))
		for _, p := range pl {
			tf, dl := float64(p.TF), float64(r.docLen[p.Doc])
			if scoring == BM25 {
				idf := math.Log(1 + (float64(nDocs)-df+0.5)/(df+0.5))
				scores[p.Doc] += float64(qn) * idf * (tf * 2.2 / (tf + 1.2*(0.25+0.75*dl/avgLen)))
				continue
			}
			idf := math.Log(float64(1+nDocs) / (1 + df))
			dw := (1 + math.Log(tf)) * idf
			if dl > 0 {
				dw /= math.Sqrt(dl)
			}
			scores[p.Doc] += (1 + math.Log(float64(qn))) * idf * dw
		}
	}
	return topK(scores, k)
}

// TestAppendOnlyMatchesDocSortedReference: documents indexed in random
// order — as reloadDerived replays tf/ records in key order, where tf/10
// comes before tf/9 — leave posting lists out of document order, and
// Search, TFIDF, Docs and Terms still answer bit for bit what a doc-sorted
// index answers.
func TestAppendOnlyMatchesDocSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	dict := text.NewDict()
	vocab := make([]string, 60)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%c%c", 'a'+i%26, 'a'+i/26)
	}
	ix := New(dict)
	ref := &refIndex{dict: dict, postings: map[int32][]refPosting{}, docLen: map[int64]int{}}
	var vecs []text.Vector
	for _, doc := range rng.Perm(400) {
		var content strings.Builder
		for i := 0; i < 1+rng.Intn(30); i++ {
			content.WriteString(vocab[int(float64(len(vocab))*rng.Float64()*rng.Float64())] + " ")
		}
		v := text.VectorFromText(dict, content.String())
		ix.AddVector(int64(doc), v)
		ref.add(int64(doc), v)
		vecs = append(vecs, v)
	}
	if ix.Docs() != len(ref.docLen) || ix.Terms() != len(ref.postings) {
		t.Fatalf("Docs/Terms = %d/%d, reference %d/%d", ix.Docs(), ix.Terms(), len(ref.docLen), len(ref.postings))
	}
	for q := 0; q < 300; q++ {
		query := ""
		for i := 0; i < 1+rng.Intn(4); i++ {
			query += vocab[rng.Intn(len(vocab))] + " "
		}
		for _, scoring := range []Scoring{TFIDF, BM25} {
			if got, want := ix.Search(query, 25, scoring), ref.search(query, 25, scoring); !reflect.DeepEqual(got, want) {
				t.Fatalf("Search(%q, %v) = %v, reference %v", query, scoring, got, want)
			}
		}
	}
	for i, v := range vecs {
		want := text.TFIDF(v, len(ref.docLen), func(id int32) int { return len(ref.postings[id]) })
		if got := ix.TFIDF(v); !reflect.DeepEqual(got, want) {
			t.Fatalf("doc %d: TFIDF = %v, reference %v", i, got, want)
		}
	}
}

// topK selects the k highest-scoring docs of a score map using a min-heap:
// the top-k step as it stood when Search summed into a map, kept for the
// references.
func topK(scores map[int64]float64, k int) []Hit {
	h := &hitHeap{}
	heap.Init(h)
	for doc, s := range scores {
		if h.Len() < k {
			heap.Push(h, Hit{doc, s})
		} else if s > (*h)[0].Score || (s == (*h)[0].Score && doc < (*h)[0].Doc) {
			(*h)[0] = Hit{doc, s}
			heap.Fix(h, 0)
		}
	}
	out := make([]Hit, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(Hit)
	}
	return out
}

// mapSearch is Search as it stood before the ordinal accumulator, over the
// same index: two map operations per posting, one to read the document's
// length and one to add to its score. Kept as the reference Search's
// scores must equal bit for bit.
func mapSearch(ix *Index, query string, k int, scoring Scoring) []Hit {
	terms := text.Terms(query)
	if len(terms) == 0 || k <= 0 {
		return nil
	}
	slices.Sort(terms)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	docLen := map[int64]int{}
	for o, doc := range ix.docs {
		docLen[doc] = ix.lens[o]
	}
	nDocs := len(docLen)
	if nDocs == 0 {
		return nil
	}
	avgLen := float64(ix.totalLen) / float64(nDocs)
	scores := make(map[int64]float64)
	//memexvet:ignore lockiter the reference reads one consistent posting set under the lock, as Search does
	for i := 0; i < len(terms); {
		term, qn := terms[i], 0
		for ; i < len(terms) && terms[i] == term; i++ {
			qn++
		}
		id, ok := ix.dict.Lookup(term)
		if !ok {
			continue
		}
		pl := ix.list(id)
		df := len(pl)
		if df == 0 {
			continue
		}
		switch scoring {
		case BM25:
			idf := math.Log(1 + (float64(nDocs)-float64(df)+0.5)/(float64(df)+0.5))
			const k1, b = 1.2, 0.75
			for _, p := range pl {
				doc := ix.docs[p.Ord]
				tf := float64(p.TF)
				dl := float64(docLen[doc])
				norm := tf * (k1 + 1) / (tf + k1*(1-b+b*dl/avgLen))
				scores[doc] += float64(qn) * idf * norm
			}
		default:
			idf := math.Log(float64(1+nDocs) / float64(1+df))
			qw := (1 + math.Log(float64(qn))) * idf
			for _, p := range pl {
				doc := ix.docs[p.Ord]
				dw := (1 + math.Log(float64(p.TF))) * idf
				dl := float64(docLen[doc])
				if dl > 0 {
					dw /= math.Sqrt(dl)
				}
				scores[doc] += qw * dw
			}
		}
	}
	return topK(scores, k)
}

// TestSearchMatchesMapSearch: on seeded random indexes whose documents
// arrive out of id order, many of them exact copies of another (so scores
// tie, and ties decide rank k), Search answers the map reference's hits
// with the same score bits, under both scorings, for every k. A term every
// document holds scores 0 under TFIDF, so zero scores are touched too.
func TestSearchMatchesMapSearch(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(70 + seed))
		vocab := make([]string, 40)
		for i := range vocab {
			vocab[i] = fmt.Sprintf("w%c%c", 'a'+i%26, 'a'+i/26)
		}
		ix := New(nil)
		var contents []string
		for _, doc := range rng.Perm(300) {
			var content strings.Builder
			content.WriteString("everywhere ")
			if len(contents) > 0 && rng.Intn(3) == 0 {
				content.WriteString(contents[rng.Intn(len(contents))])
			} else {
				for i := 0; i < 1+rng.Intn(25); i++ {
					content.WriteString(vocab[int(float64(len(vocab))*rng.Float64()*rng.Float64())] + " ")
				}
			}
			contents = append(contents, content.String())
			ix.Add(int64(doc)*7+3, content.String())
		}
		ties := 0
		for q := 0; q < 200; q++ {
			query := ""
			for i := 0; i < 1+rng.Intn(4); i++ {
				query += vocab[rng.Intn(len(vocab))] + " "
			}
			if q%10 == 0 {
				query += "everywhere"
			}
			for _, scoring := range []Scoring{TFIDF, BM25} {
				for _, k := range []int{1, 5, 40, 1000} {
					got, want := ix.Search(query, k, scoring), mapSearch(ix, query, k, scoring)
					if len(got) != len(want) {
						t.Fatalf("seed %d: Search(%q, %d, %v) has %d hits, reference %d", seed, query, k, scoring, len(got), len(want))
					}
					for i := range want {
						if got[i].Doc != want[i].Doc || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
							t.Fatalf("seed %d: Search(%q, %d, %v)[%d] = %v, reference %v", seed, query, k, scoring, i, got[i], want[i])
						}
						if i > 0 && want[i].Score == want[i-1].Score {
							ties++
						}
					}
				}
			}
		}
		if ties == 0 {
			t.Fatalf("seed %d: no tied scores: the fixture lost its point", seed)
		}
	}
}

// TestConcurrentSearches: searches on several goroutines at once, which
// share the index's pool of accumulators, each answer what a search on its
// own answers; and searches racing with documents being added read a
// consistent index (the race detector's part).
func TestConcurrentSearches(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	vocab := make([]string, 50)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%c%c", 'a'+i%26, 'a'+i/26)
	}
	randomText := func() string {
		var b strings.Builder
		for i := 0; i < 1+rng.Intn(20); i++ {
			b.WriteString(vocab[rng.Intn(len(vocab))] + " ")
		}
		return b.String()
	}
	ix := New(nil)
	for d := int64(0); d < 500; d++ {
		ix.Add(d, randomText())
	}
	queries := make([]string, 40)
	want := make([][]Hit, len(queries))
	for i := range queries {
		queries[i] = randomText()
		want[i] = ix.Search(queries[i], 10, BM25)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := (g + i) % len(queries)
				if got := ix.Search(queries[q], 10, BM25); !reflect.DeepEqual(got, want[q]) {
					t.Errorf("goroutine %d: Search(%q) = %v, alone %v", g, queries[q], got, want[q])
					return
				}
			}
		}(g)
	}
	wg.Wait()

	more := make([]string, 200)
	for i := range more {
		more[i] = randomText()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, content := range more {
			ix.Add(int64(1000+i), content)
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ix.Search(queries[(g+i)%len(queries)], 10, TFIDF)
			}
		}(g)
	}
	wg.Wait()
	if ix.Docs() != 700 {
		t.Fatalf("Docs = %d, want 700", ix.Docs())
	}
}
