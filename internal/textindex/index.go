// Package textindex implements Memex's full-text search over all pages a
// community has visited: an in-memory, append-only inverted index with
// ranked retrieval under both classic TF-IDF cosine and BM25 scoring. It
// is also the archive's one in-RAM home for collection statistics — the
// document count and every term's document frequency are the sizes of its
// own maps — so TFIDF weights vectors for the mining passes from the same
// numbers Search ranks with. The index is never persisted: its durable
// home is the per-page tf/ records of the version store, from which the
// engine rebuilds it at open.
package textindex

import (
	"container/heap"
	"math"
	"slices"
	"sort"
	"sync"

	"memex/internal/text"
)

// Posting is one document entry in a term's posting list.
type Posting struct {
	Doc int64
	TF  int32
}

// Index is the inverted index. Safe for concurrent use.
type Index struct {
	mu       sync.RWMutex
	dict     *text.Dict
	postings map[int32][]Posting // term id → postings sorted by Doc
	docLen   map[int64]int       // doc → token count
	totalLen int64
}

// New returns an empty index sharing the given dictionary (pass nil to
// create a private one).
func New(dict *text.Dict) *Index {
	if dict == nil {
		dict = text.NewDict()
	}
	return &Index{
		dict:     dict,
		postings: make(map[int32][]Posting),
		docLen:   make(map[int64]int),
	}
}

// Add indexes document content under id doc; see AddCounts.
func (ix *Index) Add(doc int64, content string) {
	ix.AddCounts(doc, text.TermCounts(content))
}

// AddCounts indexes a precomputed term-count map. A document is indexed
// once: adding an id that is already present is a no-op (first write
// wins), which is what lets a posting list's length be the term's
// document frequency with no per-document bookkeeping.
func (ix *Index) AddCounts(doc int64, tf map[string]int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, exists := ix.docLen[doc]; exists {
		return
	}
	total := 0
	for term, n := range tf {
		id := ix.dict.ID(term)
		pl := ix.postings[id]
		i := sort.Search(len(pl), func(i int) bool { return pl[i].Doc >= doc })
		ix.postings[id] = slices.Insert(pl, i, Posting{Doc: doc, TF: int32(n)})
		total += n
	}
	ix.docLen[doc] = total
	ix.totalLen += int64(total)
}

// TFIDF returns a copy of the raw term-frequency vector v (ids from the
// index's dictionary) weighted by text.TFIDF against the indexed
// collection: N is the number of indexed documents and a term's DF the
// length of its posting list, read under one lock hold so the weights
// describe a single state of the index.
func (ix *Index) TFIDF(v text.Vector) text.Vector {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return text.TFIDF(v, len(ix.docLen), func(id int32) int { return len(ix.postings[id]) })
}

// Docs returns the number of indexed documents.
func (ix *Index) Docs() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docLen)
}

// Terms returns the number of distinct indexed terms.
func (ix *Index) Terms() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.postings)
}

// Scoring selects the ranking function.
type Scoring int

const (
	// TFIDF ranks by cosine of tf-idf weights (the 1993 scatter/gather era
	// weighting Memex started from).
	TFIDF Scoring = iota
	// BM25 ranks by Okapi BM25 (k1=1.2, b=0.75).
	BM25
)

// Hit is one ranked search result.
type Hit struct {
	Doc   int64
	Score float64
}

// Search returns the top-k documents matching the free-text query, ranked
// by the selected scoring function. Multi-term queries are disjunctive
// (any term matches) as in the classic vector model.
func (ix *Index) Search(query string, k int, scoring Scoring) []Hit {
	terms := text.Terms(query)
	if len(terms) == 0 || k <= 0 {
		return nil
	}
	qtf := map[string]int{}
	for _, t := range terms {
		qtf[t]++
	}

	ix.mu.RLock()
	defer ix.mu.RUnlock()

	nDocs := len(ix.docLen)
	if nDocs == 0 {
		return nil
	}
	avgLen := float64(ix.totalLen) / float64(nDocs)
	scores := make(map[int64]float64)

	//memexvet:ignore lockiter scoring needs one consistent posting set; the index mutates in place, and the walk is bounded by the query's terms, not the archive
	for term, qn := range qtf {
		id, ok := ix.dict.Lookup(term)
		if !ok {
			continue
		}
		pl := ix.postings[id]
		df := len(pl)
		if df == 0 {
			continue
		}
		switch scoring {
		case BM25:
			idf := math.Log(1 + (float64(nDocs)-float64(df)+0.5)/(float64(df)+0.5))
			const k1, b = 1.2, 0.75
			for _, p := range pl {
				tf := float64(p.TF)
				dl := float64(ix.docLen[p.Doc])
				norm := tf * (k1 + 1) / (tf + k1*(1-b+b*dl/avgLen))
				scores[p.Doc] += float64(qn) * idf * norm
			}
		default: // TFIDF
			idf := math.Log(float64(1+nDocs) / float64(1+df))
			qw := (1 + math.Log(float64(qn))) * idf
			for _, p := range pl {
				dw := (1 + math.Log(float64(p.TF))) * idf
				dl := float64(ix.docLen[p.Doc])
				if dl > 0 {
					dw /= math.Sqrt(dl)
				}
				scores[p.Doc] += qw * dw
			}
		}
	}
	return topK(scores, k)
}

// topK selects the k highest-scoring docs using a min-heap.
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

type hitHeap []Hit

func (h hitHeap) Len() int { return len(h) }
func (h hitHeap) Less(i, j int) bool {
	if h[i].Score != h[j].Score {
		return h[i].Score < h[j].Score
	}
	return h[i].Doc > h[j].Doc // stable: lower doc id wins ties
}
func (h hitHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *hitHeap) Push(x any)   { *h = append(*h, x.(Hit)) }
func (h *hitHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
