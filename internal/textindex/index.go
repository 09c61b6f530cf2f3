// Package textindex implements Memex's full-text search over all pages a
// community has visited: an in-memory, append-only inverted index with
// ranked retrieval under both classic TF-IDF cosine and BM25 scoring. It
// is also the archive's one in-RAM home for collection statistics — the
// document count and every term's document frequency are the sizes of its
// own lists — so TFIDF weights vectors for the mining passes from the same
// numbers Search ranks with. Every document gets a dense ordinal, its place
// in the order documents were added; a posting names its document by
// ordinal, and the document ids and lengths are slices by ordinal.
// Postings are held dense by term id, each list in the order its documents
// were added: Search sums a document's scores in a slice indexed by
// ordinal and never reads posting order, so indexing a page is one append
// per term, in any document order. The index is never persisted: its
// durable home is the per-page tf/ records of the version store, from
// which the engine rebuilds it at open.
package textindex

import (
	"container/heap"
	"math"
	"slices"
	"sync"

	"memex/internal/text"
)

// Posting is one document entry in a term's posting list: the document's
// ordinal and the term's count in it.
type Posting struct {
	Ord int32
	TF  int32
}

// Index is the inverted index. Safe for concurrent use.
type Index struct {
	mu       sync.RWMutex
	dict     *text.Dict
	postings [][]Posting        // term id → postings, in the order documents were added
	terms    int                // non-empty posting lists
	indexed  map[int64]struct{} // every document added
	docs     []int64            // ordinal → document id
	lens     []int              // ordinal → token count
	totalLen int64
	// accs recycles Search's score accumulators.
	accs sync.Pool
}

// New returns an empty index sharing the given dictionary (pass nil to
// create a private one).
func New(dict *text.Dict) *Index {
	if dict == nil {
		dict = text.NewDict()
	}
	return &Index{dict: dict, indexed: make(map[int64]struct{})}
}

// Add indexes document content under id doc, interning its terms; see
// AddVector. Experiment E8 and the tests index raw text through it.
func (ix *Index) Add(doc int64, content string) {
	ix.AddCounts(doc, text.TermCounts(content))
}

// AddCounts is AddVector for counts keyed by term string, interning each
// term: the string entry point the bench ladder indexes through.
func (ix *Index) AddCounts(doc int64, tf map[string]int) {
	ix.AddVector(doc, text.VectorFromCounts(ix.dict, tf))
}

// AddVector indexes a document's raw term counts, ids from the index's
// dictionary: one append per term, and no dictionary lock. A document is
// indexed once: adding an id that is already present is a no-op (first
// write wins), which is what lets a posting list's length be the term's
// document frequency with no per-document bookkeeping.
func (ix *Index) AddVector(doc int64, v text.Vector) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, exists := ix.indexed[doc]; exists {
		return
	}
	ord := int32(len(ix.docs))
	total := 0
	for i, id := range v.IDs {
		if int(id) >= len(ix.postings) {
			ix.postings = append(ix.postings, make([][]Posting, int(id)+1-len(ix.postings))...)
		}
		n := int(v.Weights[i])
		if len(ix.postings[id]) == 0 {
			ix.terms++
		}
		ix.postings[id] = append(ix.postings[id], Posting{Ord: ord, TF: int32(n)})
		total += n
	}
	ix.indexed[doc] = struct{}{}
	ix.docs = append(ix.docs, doc)
	ix.lens = append(ix.lens, total)
	ix.totalLen += int64(total)
}

// list is term id's posting list, nil for a term no document has (mu
// held). Its length is the term's document frequency.
func (ix *Index) list(id int32) []Posting {
	if int(id) < len(ix.postings) {
		return ix.postings[id]
	}
	return nil
}

// TFIDF returns a copy of the raw term-frequency vector v (ids from the
// index's dictionary) weighted by text.TFIDF against the indexed
// collection: N is the number of indexed documents and a term's DF the
// length of its posting list, read under one lock hold so the weights
// describe a single state of the index.
func (ix *Index) TFIDF(v text.Vector) text.Vector {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return text.TFIDF(v, len(ix.docs), func(id int32) int { return len(ix.list(id)) })
}

// Docs returns the number of indexed documents.
func (ix *Index) Docs() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docs)
}

// Terms returns the number of distinct indexed terms.
func (ix *Index) Terms() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.terms
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
// (any term matches) as in the classic vector model. A document's score
// adds its per-term scores in the query terms' sorted order, so a query
// answers with the same bits on every call. The scores accumulate in a
// slice indexed by document ordinal, and the top k are taken over the
// ordinals the query touched.
func (ix *Index) Search(query string, k int, scoring Scoring) []Hit {
	terms := text.Terms(query)
	if len(terms) == 0 || k <= 0 {
		return nil
	}
	slices.Sort(terms)

	ix.mu.RLock()
	defer ix.mu.RUnlock()

	nDocs := len(ix.docs)
	if nDocs == 0 {
		return nil
	}
	avgLen := float64(ix.totalLen) / float64(nDocs)
	acc := ix.accumulator(nDocs)
	defer ix.accs.Put(acc)

	//memexvet:ignore lockiter scoring needs one consistent posting set; the index appends in place, and the walk is bounded by the query's terms, not the archive
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
				tf := float64(p.TF)
				dl := float64(ix.lens[p.Ord])
				norm := tf * (k1 + 1) / (tf + k1*(1-b+b*dl/avgLen))
				acc.add(p.Ord, float64(qn)*idf*norm)
			}
		default: // TFIDF
			idf := math.Log(float64(1+nDocs) / float64(1+df))
			qw := (1 + math.Log(float64(qn))) * idf
			for _, p := range pl {
				dw := (1 + math.Log(float64(p.TF))) * idf
				dl := float64(ix.lens[p.Ord])
				if dl > 0 {
					dw /= math.Sqrt(dl)
				}
				acc.add(p.Ord, qw*dw)
			}
		}
	}
	return acc.top(ix.docs, k)
}

// accumulator returns a cleared accumulator with room for n ordinals.
func (ix *Index) accumulator(n int) *accumulator {
	acc, _ := ix.accs.Get().(*accumulator)
	if acc == nil {
		acc = &accumulator{}
	}
	if len(acc.score) < n {
		acc.score = make([]float64, n+n/4)
		acc.hit = make([]bool, len(acc.score))
	}
	return acc
}

// accumulator is one search's scores by document ordinal. score[o] is
// ordinal o's sum so far and hit[o] whether a posting touched it; touched
// lists the touched ordinals. Between searches every score is 0 and every
// hit false: top clears what the search set.
type accumulator struct {
	score   []float64
	hit     []bool
	touched []int32
}

// add adds s to ordinal o's score. A score starts at 0, as a missing map
// entry does, so the sums are the bits a map of scores would hold.
func (a *accumulator) add(o int32, s float64) {
	if !a.hit[o] {
		a.hit[o] = true
		a.touched = append(a.touched, o)
	}
	a.score[o] += s
}

// top returns the k best touched ordinals as hits, docs naming each
// ordinal's document, best first: by score descending, then by lower
// document id. That order is total, so the hits are the same whatever
// order the ordinals were touched in. It leaves a cleared.
func (a *accumulator) top(docs []int64, k int) []Hit {
	h := make(hitHeap, 0, min(k, len(a.touched)))
	for _, o := range a.touched {
		hit := Hit{docs[o], a.score[o]}
		a.score[o], a.hit[o] = 0, false
		switch {
		case len(h) < k:
			h = append(h, hit)
			if len(h) == k {
				heap.Init(&h)
			}
		case better(hit, h[0]):
			h[0] = hit
			heap.Fix(&h, 0)
		}
	}
	a.touched = a.touched[:0]
	slices.SortFunc(h, func(x, y Hit) int {
		switch {
		case better(x, y):
			return -1
		case better(y, x):
			return 1
		}
		return 0
	})
	return h
}

// better reports whether hit a ranks above hit b.
func better(a, b Hit) bool {
	return a.Score > b.Score || (a.Score == b.Score && a.Doc < b.Doc)
}

// hitHeap is a min-heap of hits: its root is the worst of them.
type hitHeap []Hit

func (h hitHeap) Len() int           { return len(h) }
func (h hitHeap) Less(i, j int) bool { return better(h[j], h[i]) }
func (h hitHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *hitHeap) Push(x any)        { *h = append(*h, x.(Hit)) }
func (h *hitHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
