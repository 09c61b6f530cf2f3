package text

import (
	"math"
	"slices"
	"sort"
	"sync"
)

// Dict interns term strings to dense int32 ids, shared across all mining
// modules so that vectors from different subsystems are comparable.
// Safe for concurrent use.
type Dict struct {
	mu    sync.RWMutex
	ids   map[string]int32
	terms []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]int32)}
}

// ID interns term and returns its id.
func (d *Dict) ID(term string) int32 {
	d.mu.RLock()
	id, ok := d.ids[term]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[term]; ok {
		return id
	}
	id = int32(len(d.terms))
	d.ids[term] = id
	d.terms = append(d.terms, term)
	return id
}

// Lookup returns the id for term without interning; ok=false when unseen.
func (d *Dict) Lookup(term string) (int32, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.ids[term]
	return id, ok
}

// Term returns the string for id (empty when out of range).
func (d *Dict) Term(id int32) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id < 0 || int(id) >= len(d.terms) {
		return ""
	}
	return d.terms[id]
}

// Terms returns every interned term indexed by its id, under one read
// lock. The slice shares the dictionary's storage, so the caller must not
// modify it; ids interned after the call are not in it, and the ones it
// holds never change.
func (d *Dict) Terms() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.terms[:len(d.terms):len(d.terms)]
}

// Size returns the number of interned terms.
func (d *Dict) Size() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.terms)
}

// Vector is a sparse term vector: parallel sorted-by-id slices. With raw
// counts for weights it is also a page's term counts, the one form the
// engine carries them in from the fetch to every consumer.
type Vector struct {
	IDs     []int32
	Weights []float64
}

// VectorFromCounts builds a raw term-frequency vector, interning terms: the
// string adapter into the id form for callers that count by string — the
// bench ladder, and the string entry points textindex.Index.AddCounts and
// classify.Trainer.AddCounts that it and internal/experiments call. The
// engine's fetch path counts by id through a StemMemo instead.
func VectorFromCounts(d *Dict, tf map[string]int) Vector {
	return vectorFrom(tf, func(term string) (int32, bool) { return d.ID(term), true })
}

// VectorFromKnownCounts is VectorFromCounts for text that is not being
// archived: a term the dictionary does not hold is dropped, never interned.
// Scoring such text against a model (classify.Bayes's string entry points)
// reads only the terms some archived page named. One read lock covers
// every lookup.
func VectorFromKnownCounts(d *Dict, tf map[string]int) Vector {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return vectorFrom(tf, func(term string) (int32, bool) {
		id, ok := d.ids[term]
		return id, ok
	})
}

// VectorFromText is shorthand for VectorFromCounts(d, TermCounts(s)).
func VectorFromText(d *Dict, s string) Vector {
	return VectorFromCounts(d, TermCounts(s))
}

// vectorFrom builds the raw-count vector of tf, each term's id from id; a
// term id reports unknown is left out.
func vectorFrom(tf map[string]int, id func(string) (int32, bool)) Vector {
	v := Vector{
		IDs:     make([]int32, 0, len(tf)),
		Weights: make([]float64, 0, len(tf)),
	}
	for term, n := range tf {
		if tid, ok := id(term); ok {
			v.IDs = append(v.IDs, tid)
			v.Weights = append(v.Weights, float64(n))
		}
	}
	v.sortByID()
	return v
}

// countIDs returns the raw-count vector of a bag of term ids, one id per
// occurrence: sorted in place, then run-length counted. The IDs slice is
// non-nil even for an empty bag.
func countIDs(ids []int32) Vector {
	slices.Sort(ids)
	v := Vector{IDs: make([]int32, 0, len(ids)), Weights: make([]float64, 0, len(ids))}
	for i, id := range ids {
		if i > 0 && id == ids[i-1] {
			v.Weights[len(v.Weights)-1]++
			continue
		}
		v.IDs = append(v.IDs, id)
		v.Weights = append(v.Weights, 1)
	}
	return v
}

func (v *Vector) sortByID() {
	sort.Sort(byID{v})
}

type byID struct{ v *Vector }

func (s byID) Len() int           { return len(s.v.IDs) }
func (s byID) Less(i, j int) bool { return s.v.IDs[i] < s.v.IDs[j] }
func (s byID) Swap(i, j int) {
	s.v.IDs[i], s.v.IDs[j] = s.v.IDs[j], s.v.IDs[i]
	s.v.Weights[i], s.v.Weights[j] = s.v.Weights[j], s.v.Weights[i]
}

// Len returns the number of nonzero components.
func (v Vector) Len() int { return len(v.IDs) }

// Norm returns the Euclidean norm.
func (v Vector) Norm() float64 {
	var s float64
	for _, w := range v.Weights {
		s += w * w
	}
	return math.Sqrt(s)
}

// Dot returns the dot product of two vectors (both sorted by id). The
// explicit conversion keeps the compiler from fusing the multiply into the
// add on platforms that have the instruction: Matrix.Cosines promises the
// same bits, and a product rounded in one place and not the other would
// break that.
func Dot(a, b Vector) float64 {
	var s float64
	i, j := 0, 0
	for i < len(a.IDs) && j < len(b.IDs) {
		switch {
		case a.IDs[i] < b.IDs[j]:
			i++
		case a.IDs[i] > b.IDs[j]:
			j++
		default:
			s += float64(a.Weights[i] * b.Weights[j])
			i++
			j++
		}
	}
	return s
}

// Cosine returns the cosine similarity in [0,1] for nonnegative vectors;
// zero when either vector is empty.
//
//memexvet:ignore reader the reference TestMatrixCosinesMatchCosine holds Matrix.Cosines to, bit for bit
func Cosine(a, b Vector) float64 {
	return CosineWithNorms(a, b, a.Norm(), b.Norm())
}

// CosineWithNorms is Cosine for a caller that already holds a.Norm() and
// b.Norm(): a loop comparing one vector with many computes its norm once.
func CosineWithNorms(a, b Vector, na, nb float64) float64 {
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// Scale multiplies all weights by f in place and returns v.
func (v Vector) Scale(f float64) Vector {
	for i := range v.Weights {
		v.Weights[i] *= f
	}
	return v
}

// Normalize scales v to unit norm in place (no-op for the zero vector).
func (v Vector) Normalize() Vector {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Add returns a + b as a new vector.
func Add(a, b Vector) Vector {
	out := Vector{
		IDs:     make([]int32, 0, len(a.IDs)+len(b.IDs)),
		Weights: make([]float64, 0, len(a.IDs)+len(b.IDs)),
	}
	i, j := 0, 0
	for i < len(a.IDs) || j < len(b.IDs) {
		switch {
		case j >= len(b.IDs) || (i < len(a.IDs) && a.IDs[i] < b.IDs[j]):
			out.IDs = append(out.IDs, a.IDs[i])
			out.Weights = append(out.Weights, a.Weights[i])
			i++
		case i >= len(a.IDs) || b.IDs[j] < a.IDs[i]:
			out.IDs = append(out.IDs, b.IDs[j])
			out.Weights = append(out.Weights, b.Weights[j])
			j++
		default:
			out.IDs = append(out.IDs, a.IDs[i])
			out.Weights = append(out.Weights, a.Weights[i]+b.Weights[j])
			i++
			j++
		}
	}
	return out
}

// Centroid returns the mean of the given vectors (empty input → zero
// vector) as a new vector that shares no storage with any of them, so the
// caller may Scale or Normalize it. One pass accumulates every term's sum
// in the order the vectors come — the order a chain of Add calls would sum
// them in, so the weights are the same bits — through a term-id → slot
// table sized by the largest id present.
func Centroid(vs []Vector) Vector {
	if len(vs) == 0 {
		return Vector{}
	}
	slot := make([]int32, idSpan(vs)) // 1 + the term's index in sums; 0 = not yet seen
	var sums []float64
	for _, v := range vs {
		for i, id := range v.IDs {
			if s := slot[id]; s != 0 {
				sums[s-1] += v.Weights[i]
				continue
			}
			sums = append(sums, v.Weights[i])
			slot[id] = int32(len(sums))
		}
	}
	out := Vector{IDs: make([]int32, 0, len(sums)), Weights: make([]float64, 0, len(sums))}
	for id, s := range slot {
		if s != 0 {
			out.IDs = append(out.IDs, int32(id))
			out.Weights = append(out.Weights, sums[s-1])
		}
	}
	return out.Scale(1 / float64(len(vs)))
}

// Top returns the k heaviest components as (id, weight) pairs, descending.
func (v Vector) Top(k int) ([]int32, []float64) {
	type comp struct {
		id int32
		w  float64
	}
	cs := make([]comp, len(v.IDs))
	for i := range v.IDs {
		cs[i] = comp{v.IDs[i], v.Weights[i]}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].w > cs[j].w })
	if k > len(cs) {
		k = len(cs)
	}
	ids := make([]int32, k)
	ws := make([]float64, k)
	for i := 0; i < k; i++ {
		ids[i], ws[i] = cs[i].id, cs[i].w
	}
	return ids, ws
}

// Corpus aggregates document frequencies so callers can TF-IDF-weight
// vectors consistently. Safe for concurrent use.
type Corpus struct {
	mu   sync.RWMutex
	df   map[int32]int
	docs int
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{df: make(map[int32]int)}
}

// AddDoc records one document's terms for DF accounting.
func (c *Corpus) AddDoc(v Vector) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.docs++
	for _, id := range v.IDs {
		c.df[id]++
	}
}

// TFIDF returns a copy of v with weights tf·idf, unit-normalized.
func (c *Corpus) TFIDF(v Vector) Vector {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return TFIDF(v, c.docs, func(id int32) int { return c.df[id] })
}

// idf is the smoothed inverse document frequency of a term found in df of
// docs documents.
func idf(docs, df int) float64 {
	return math.Log(float64(1+docs) / float64(1+df))
}

// TFIDF returns a copy of the raw term-frequency vector v with weights
// (1+ln tf)·idf, unit-normalized, against a collection of docs documents
// whose document frequencies df reports. It is the one tf·idf weighting
// in the repo: Corpus.TFIDF and the engine's inverted index both call it
// with their own statistics.
func TFIDF(v Vector, docs int, df func(id int32) int) Vector {
	out := Vector{
		IDs:     append([]int32(nil), v.IDs...),
		Weights: make([]float64, len(v.Weights)),
	}
	for i, id := range v.IDs {
		out.Weights[i] = (1 + math.Log(v.Weights[i])) * idf(docs, df(id))
	}
	return out.Normalize()
}
