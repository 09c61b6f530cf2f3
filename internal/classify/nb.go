// Package classify implements Memex's two document classifiers:
//
//   - Bayes: the multinomial naive Bayes text classifier of Chakrabarti et
//     al. (VLDB Journal 1998) with Fisher-index feature selection — the
//     paper's "text-only learner" baseline, which achieves roughly 40%
//     accuracy on sparse bookmarked front pages.
//   - Hypertext: the new Memex model combining text likelihood with
//     hyperlink neighbour evidence (iterative relaxation labelling) and
//     folder co-placement priors, lifting accuracy to roughly 80%
//     (experiment E1 regenerates this comparison).
//
// A trained Bayes model carries its scoring table: one row of per-class
// log-probabilities per term that counts, indexed by the term's dictionary
// id and ranked by the term's string. Scoring a page's raw-count vector is
// one slice index per term, an integer sort of the matching rows' ranks and
// a sum in that order — the terms' sorted-string order — so every score is
// a pure function of (model, page) and the same bits whichever order the
// dictionary interned its terms in.
package classify

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"memex/internal/text"
)

// Trainer accumulates labelled documents for naive Bayes training.
type Trainer struct {
	dict    *text.Dict
	classes map[string]*classAcc
}

type classAcc struct {
	docs       int
	termCounts map[int32]int
	totalTerms int
}

// NewTrainer returns an empty trainer over the shared dictionary (nil for a
// private one).
func NewTrainer(dict *text.Dict) *Trainer {
	if dict == nil {
		dict = text.NewDict()
	}
	return &Trainer{dict: dict, classes: map[string]*classAcc{}}
}

// AddCounts is AddVector for counts keyed by term string, interning each
// term: the string entry point the bench ladder and experiments E1, E2 and
// E10 train through.
func (tr *Trainer) AddCounts(class string, tf map[string]int) {
	tr.AddVector(class, text.VectorFromCounts(tr.dict, tf))
}

// AddVector records one labelled document given as its raw term counts,
// ids from the trainer's dictionary.
func (tr *Trainer) AddVector(class string, v text.Vector) {
	acc := tr.classes[class]
	if acc == nil {
		acc = &classAcc{termCounts: map[int32]int{}}
		tr.classes[class] = acc
	}
	acc.docs++
	for i, id := range v.IDs {
		n := int(v.Weights[i])
		acc.termCounts[id] += n
		acc.totalTerms += n
	}
}

// Options tunes training.
type Options struct {
	// MaxFeatures keeps only the top-k terms by Fisher discriminant score;
	// 0 keeps the whole vocabulary.
	MaxFeatures int
	// Smoothing is the Laplace/Lidstone constant (default 0.1).
	Smoothing float64
}

// Bayes is a trained multinomial naive Bayes model.
type Bayes struct {
	dict     *text.Dict
	Classes  []string
	classIdx map[string]int
	logPrior []float64
	// rows is the scoring table, prepared once by Train: for every term
	// that counts — the selected features, or with no selection every term
	// some class was trained on — log P(t|c) for each class c in Classes
	// order, the smoothed default where the class never saw the term. Row r
	// is rows[r*len(Classes):][:len(Classes)], and the rows are ranked by
	// term string, so summing matching rows in rank order is summing in
	// sorted-term order.
	rows []float64
	// slot[id] is 1 + the rank of term id's row, 0 for a term without one
	// (ids past the slice have none either): one int32 per dictionary id up
	// to the largest id with a row, never a row per dictionary term.
	slot []int32
	// rowTerms holds the rows' terms in rank order, kept only without
	// feature selection, where a term without a row still counts and must
	// be summed in its string's place among them.
	rowTerms []string
	// defaultLog[c] is log P(t|c) for a term no class was trained on.
	defaultLog []float64
	// selected is false when training kept the whole vocabulary: a term
	// without a row then still counts, at defaultLog.
	selected bool
}

// Train builds the model from the accumulated documents.
func (tr *Trainer) Train(opts Options) (*Bayes, error) {
	if len(tr.classes) < 2 {
		return nil, fmt.Errorf("classify: need at least 2 classes, have %d", len(tr.classes))
	}
	if opts.Smoothing <= 0 {
		opts.Smoothing = 0.1
	}
	classes := make([]string, 0, len(tr.classes))
	for c := range tr.classes {
		classes = append(classes, c)
	}
	sort.Strings(classes)

	var features map[int32]bool
	if opts.MaxFeatures > 0 {
		features = tr.selectFeatures(classes, opts.MaxFeatures)
	}

	m := &Bayes{
		dict:       tr.dict,
		Classes:    classes,
		classIdx:   map[string]int{},
		logPrior:   make([]float64, len(classes)),
		defaultLog: make([]float64, len(classes)),
		selected:   features != nil,
	}
	totalDocs := 0
	for _, acc := range tr.classes {
		totalDocs += acc.docs
	}
	vocabSize := tr.dict.Size()
	denom := make([]float64, len(classes))
	counted := map[int32]bool{} // every term that gets a row
	for ci, c := range classes {
		m.classIdx[c] = ci
		acc := tr.classes[c]
		m.logPrior[ci] = math.Log(float64(acc.docs) / float64(totalDocs))
		denom[ci] = float64(acc.totalTerms) + opts.Smoothing*float64(vocabSize)
		m.defaultLog[ci] = math.Log(opts.Smoothing / denom[ci])
		for id := range acc.termCounts {
			if features == nil || features[id] {
				counted[id] = true
			}
		}
	}
	terms := tr.dict.Terms()
	ranked := make([]int32, 0, len(counted))
	for id := range counted {
		ranked = append(ranked, id)
	}
	slices.SortFunc(ranked, func(a, b int32) int { return strings.Compare(terms[a], terms[b]) })
	if len(ranked) > 0 {
		m.slot = make([]int32, slices.Max(ranked)+1)
	}
	m.rows = make([]float64, 0, len(ranked)*len(classes))
	for r, id := range ranked {
		m.slot[id] = int32(r + 1)
		for ci, c := range classes {
			lp := m.defaultLog[ci]
			if n, ok := tr.classes[c].termCounts[id]; ok {
				lp = math.Log((float64(n) + opts.Smoothing) / denom[ci])
			}
			m.rows = append(m.rows, lp)
		}
		if !m.selected {
			m.rowTerms = append(m.rowTerms, terms[id])
		}
	}
	return m, nil
}

// selectFeatures ranks terms by the Fisher discriminant: the ratio of
// between-class variance of the term's per-class rate to its within-class
// spread, as in the TAPER system the paper builds on.
func (tr *Trainer) selectFeatures(classes []string, k int) map[int32]bool {
	type scored struct {
		id    int32
		term  string
		score float64
	}
	rates := make([]map[int32]float64, len(classes))
	for i, c := range classes {
		acc := tr.classes[c]
		r := make(map[int32]float64, len(acc.termCounts))
		if acc.totalTerms > 0 {
			for id, n := range acc.termCounts {
				r[id] = float64(n) / float64(acc.totalTerms)
			}
		}
		rates[i] = r
	}
	ids := map[int32]bool{}
	for _, r := range rates {
		for id := range r {
			ids[id] = true
		}
	}
	var all []scored
	for id := range ids {
		var mean float64
		for _, r := range rates {
			mean += r[id]
		}
		mean /= float64(len(rates))
		var between, within float64
		for _, r := range rates {
			d := r[id] - mean
			between += d * d
			// Multinomial rate variance proxy: p(1-p).
			within += r[id] * (1 - r[id])
		}
		if within < 1e-12 {
			within = 1e-12
		}
		all = append(all, scored{id, tr.dict.Term(id), between / within})
	}
	// Ties break on the term string, not the id: dictionary ids follow
	// the order a dictionary happened to intern its terms, so an id
	// tiebreak would select a different feature set from the same examples
	// under a dictionary built in another order, and the model must be a
	// function of the examples alone. (Terms are resolved once
	// above — the comparator must not take the dict lock O(n log n) times.)
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].term < all[j].term
	})
	if k > len(all) {
		k = len(all)
	}
	out := make(map[int32]bool, k)
	for _, s := range all[:k] {
		out[s.id] = true
	}
	return out
}

// LogScoresVector returns per-class unnormalized log posteriors for a
// document's raw term counts, ids from the model's dictionary. The
// matching terms are summed in sorted-term order, so the float sums — and
// therefore every downstream posterior, classification and crawl-frontier
// priority — are a pure function of (model, document), not of map or id
// order. A term with a row sorts by its row's rank, an integer compare;
// only without feature selection does a term without a row count too, at
// defaultLog, placed among the rows by its string.
func (m *Bayes) LogScoresVector(v text.Vector) []float64 {
	type hit struct {
		key  int // 2·rank for a row; 2·(rows ranked before it)−1 for a term without one
		n    float64
		term string // set only for a term without a row
	}
	nc := len(m.Classes)
	hits := make([]hit, 0, len(v.IDs))
	var terms []string
	for i, id := range v.IDs {
		if int(id) < len(m.slot) && m.slot[id] != 0 {
			hits = append(hits, hit{key: 2 * int(m.slot[id]-1), n: v.Weights[i]})
			continue
		}
		if m.selected {
			continue
		}
		if terms == nil {
			terms = m.dict.Terms()
		}
		at, _ := slices.BinarySearch(m.rowTerms, terms[id])
		hits = append(hits, hit{key: 2*at - 1, n: v.Weights[i], term: terms[id]})
	}
	slices.SortFunc(hits, func(a, b hit) int {
		if a.key != b.key {
			return cmp.Compare(a.key, b.key)
		}
		return strings.Compare(a.term, b.term) // two terms without rows, between the same two rows
	})
	scores := append([]float64(nil), m.logPrior...)
	for _, h := range hits {
		row := m.defaultLog
		if h.key >= 0 && h.key%2 == 0 {
			r := h.key / 2
			row = m.rows[r*nc : (r+1)*nc]
		}
		for ci, lp := range row {
			scores[ci] += float64(h.n * lp)
		}
	}
	return scores
}

// PosteriorsVector returns normalized class probabilities for a document's
// raw term counts.
func (m *Bayes) PosteriorsVector(v text.Vector) []float64 {
	return softmax(m.LogScoresVector(v))
}

// ClassifyVector returns the most probable class for a document's raw term
// counts and its posterior probability.
func (m *Bayes) ClassifyVector(v text.Vector) (string, float64) {
	post := m.PosteriorsVector(v)
	best := 0
	for i, p := range post {
		if p > post[best] {
			best = i
		}
	}
	return m.Classes[best], post[best]
}

// LogScores is LogScoresVector for counts keyed by term string. A term the
// dictionary does not hold counts for nothing and is not interned.
// ClassifyGraph scores its documents through it (experiment E1).
func (m *Bayes) LogScores(tf map[string]int) []float64 {
	return m.LogScoresVector(text.VectorFromKnownCounts(m.dict, tf))
}

// Classify is ClassifyVector for counts keyed by term string, as
// LogScores: the string entry point of the bench ladder, the ablation
// benchmarks and experiments E2 and E10.
func (m *Bayes) Classify(tf map[string]int) (string, float64) {
	return m.ClassifyVector(text.VectorFromKnownCounts(m.dict, tf))
}

// ClassIndex returns the dense index of a class label, or -1.
func (m *Bayes) ClassIndex(class string) int {
	if i, ok := m.classIdx[class]; ok {
		return i
	}
	return -1
}

// softmax converts log scores to a probability distribution, guarding
// against underflow by subtracting the max.
func softmax(logs []float64) []float64 {
	max := math.Inf(-1)
	for _, l := range logs {
		if l > max {
			max = l
		}
	}
	out := make([]float64, len(logs))
	var sum float64
	for i, l := range logs {
		out[i] = math.Exp(l - max)
		sum += out[i]
	}
	if sum == 0 {
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}
