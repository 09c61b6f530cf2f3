package textindex

import (
	"fmt"
	"math/rand"
	"reflect"
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
	postings := func() map[int32][]Posting {
		out := map[int32][]Posting{}
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
