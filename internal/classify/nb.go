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
// log-probabilities per term that counts, keyed by the term string. Scoring
// a page is one map lookup per term and a sum, over the counting terms in
// sorted order, that is a pure function of (model, page).
package classify

import (
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

// Add records one labelled document given as raw text.
func (tr *Trainer) Add(class, content string) {
	tr.AddCounts(class, text.TermCounts(content))
}

// AddCounts records one labelled document given as term counts.
func (tr *Trainer) AddCounts(class string, tf map[string]int) {
	acc := tr.classes[class]
	if acc == nil {
		acc = &classAcc{termCounts: map[int32]int{}}
		tr.classes[class] = acc
	}
	acc.docs++
	for term, n := range tf {
		id := tr.dict.ID(term)
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
	// order, the smoothed default where the class never saw the term. It
	// is keyed by the term string, so scoring a document costs one map
	// lookup per term and never touches the shared dictionary's lock.
	rows map[string][]float64
	// defaultLog[c] is log P(t|c) for a term no class was trained on.
	defaultLog []float64
	// selected is false when training kept the whole vocabulary: a term
	// absent from rows then still counts, at defaultLog, provided the
	// dictionary knows it.
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
	m.rows = make(map[string][]float64, len(counted))
	table := make([]float64, 0, len(counted)*len(classes))
	for id := range counted {
		for ci, c := range classes {
			lp := m.defaultLog[ci]
			if n, ok := tr.classes[c].termCounts[id]; ok {
				lp = math.Log((float64(n) + opts.Smoothing) / denom[ci])
			}
			table = append(table, lp)
		}
		m.rows[tr.dict.Term(id)] = table[len(table)-len(classes):]
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

// LogScores returns per-class unnormalized log posteriors for the document.
// Terms are accumulated in sorted order so the float sums — and therefore
// every downstream posterior, classification and crawl-frontier priority —
// are a pure function of (model, document), not of map iteration order.
// Only the terms that count are sorted: the rest add nothing, in any order.
func (m *Bayes) LogScores(tf map[string]int) []float64 {
	type hit struct {
		term string
		n    float64
		row  []float64
	}
	hits := make([]hit, 0, len(tf))
	for term, n := range tf {
		row, ok := m.rows[term]
		if !ok {
			if m.selected {
				continue
			}
			if _, known := m.dict.Lookup(term); !known {
				continue
			}
			row = m.defaultLog
		}
		hits = append(hits, hit{term, float64(n), row})
	}
	slices.SortFunc(hits, func(a, b hit) int { return strings.Compare(a.term, b.term) })
	scores := append([]float64(nil), m.logPrior...)
	for _, h := range hits {
		for ci, lp := range h.row {
			scores[ci] += float64(h.n * lp)
		}
	}
	return scores
}

// Posteriors returns normalized class probabilities for the document.
func (m *Bayes) Posteriors(tf map[string]int) []float64 {
	return softmax(m.LogScores(tf))
}

// Classify returns the most probable class and its posterior probability.
func (m *Bayes) Classify(tf map[string]int) (string, float64) {
	post := m.Posteriors(tf)
	best := 0
	for i, p := range post {
		if p > post[best] {
			best = i
		}
	}
	return m.Classes[best], post[best]
}

// ClassifyText is Classify over raw text.
func (m *Bayes) ClassifyText(content string) (string, float64) {
	return m.Classify(text.TermCounts(content))
}

// ClassIndex returns the dense index of a class label, or -1.
func (m *Bayes) ClassIndex(class string) int {
	if i, ok := m.classIdx[class]; ok {
		return i
	}
	return -1
}

// FeatureCount reports the number of selected features (0 = all).
func (m *Bayes) FeatureCount() int {
	if !m.selected {
		return 0
	}
	return len(m.rows)
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
