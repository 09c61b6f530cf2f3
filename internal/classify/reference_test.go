package classify

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"memex/internal/text"
)

// referenceTrainer is the trainer as it stood before its counts were
// dense: one term-id → count map per class, and feature selection over
// per-class rate maps, each term's string looked up in the dictionary on
// its own. Kept as the reference the dense trainer's selection and model
// must equal.
type referenceTrainer struct {
	dict    *text.Dict
	classes map[string]*referenceAcc
}

type referenceAcc struct {
	docs       int
	termCounts map[int32]int
	totalTerms int
}

func (tr *referenceTrainer) AddVector(class string, v text.Vector) {
	acc := tr.classes[class]
	if acc == nil {
		acc = &referenceAcc{termCounts: map[int32]int{}}
		tr.classes[class] = acc
	}
	acc.docs++
	for i, id := range v.IDs {
		n := int(v.Weights[i])
		acc.termCounts[id] += n
		acc.totalTerms += n
	}
}

func (tr *referenceTrainer) selectFeatures(classes []string, k int) map[int32]bool {
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
			within += r[id] * (1 - r[id])
		}
		if within < 1e-12 {
			within = 1e-12
		}
		all = append(all, scored{id, tr.dict.Term(id), between / within})
	}
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

// referenceBayes is the model as Train built it before the scoring table:
// one term-id → log-probability map per class and a feature set, scored by
// a dictionary lookup, a feature check and a map lookup per class for every
// term. Kept as the reference the prepared rows must equal bit for bit.
type referenceBayes struct {
	dict       *text.Dict
	classes    []string
	logPrior   []float64
	termLog    []map[int32]float64
	defaultLog []float64
	features   map[int32]bool
}

func referenceTrain(tr *referenceTrainer, opts Options) *referenceBayes {
	classes := make([]string, 0, len(tr.classes))
	for c := range tr.classes {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	m := &referenceBayes{dict: tr.dict, classes: classes}
	if opts.MaxFeatures > 0 {
		m.features = tr.selectFeatures(classes, opts.MaxFeatures)
	}
	totalDocs := 0
	for _, acc := range tr.classes {
		totalDocs += acc.docs
	}
	vocabSize := tr.dict.Size()
	for _, c := range classes {
		acc := tr.classes[c]
		m.logPrior = append(m.logPrior, math.Log(float64(acc.docs)/float64(totalDocs)))
		tl := map[int32]float64{}
		denom := float64(acc.totalTerms) + smoothing*float64(vocabSize)
		for id, n := range acc.termCounts {
			if m.features != nil && !m.features[id] {
				continue
			}
			tl[id] = math.Log((float64(n) + smoothing) / denom)
		}
		m.termLog = append(m.termLog, tl)
		m.defaultLog = append(m.defaultLog, math.Log(smoothing/denom))
	}
	return m
}

func (m *referenceBayes) LogScores(tf map[string]int) []float64 {
	terms := make([]string, 0, len(tf))
	for term := range tf {
		terms = append(terms, term)
	}
	sort.Strings(terms)
	scores := append([]float64(nil), m.logPrior...)
	for _, term := range terms {
		id, ok := m.dict.Lookup(term)
		if !ok {
			continue
		}
		if m.features != nil && !m.features[id] {
			continue
		}
		n := tf[term]
		for ci := range scores {
			lp, ok := m.termLog[ci][id]
			if !ok {
				lp = m.defaultLog[ci]
			}
			scores[ci] += float64(float64(n) * lp)
		}
	}
	return scores
}

// trainerWorld fills a trainer, and the reference trainer beside it, over
// a shared dictionary with classes folders of docs documents each, every
// class drawing most of its words from its own vocabulary and the rest
// from one all classes share.
func trainerWorld(rng *rand.Rand, dict *text.Dict, classes, docs, terms int) (*Trainer, *referenceTrainer) {
	tr := NewTrainer(dict)
	ref := &referenceTrainer{dict: dict, classes: map[string]*referenceAcc{}}
	for c := 0; c < classes; c++ {
		for d := 0; d < docs; d++ {
			tf := map[string]int{}
			for len(tf) < terms {
				if rng.Intn(4) == 0 {
					tf[fmt.Sprintf("shared%d", rng.Intn(2000))] += 1 + rng.Intn(3)
				} else {
					tf[fmt.Sprintf("c%dw%d", c, rng.Intn(3000))] += 1 + rng.Intn(3)
				}
			}
			v := text.VectorFromCounts(dict, tf)
			tr.AddVector(fmt.Sprintf("/folder%d", c), v)
			ref.AddVector(fmt.Sprintf("/folder%d", c), v)
		}
	}
	return tr, ref
}

// TestLogScoresMatchReference: over the id form — the vector the engine
// classifies — and through the string entry point, with and without
// feature selection, every score is bit for bit the reference's sum in
// sorted-term order, for pages that name terms no class was trained on,
// terms the dictionary holds from other pages, and terms nobody knows.
func TestLogScoresMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	dict := text.NewDict()
	tr, refTr := trainerWorld(rng, dict, 5, 12, 40)
	// The dictionary is the engine's, shared with every other page: it
	// knows terms no class was trained on.
	for i := 0; i < 50; i++ {
		dict.ID(fmt.Sprintf("elsewhere%d", i))
	}
	for _, opts := range []Options{{}, {MaxFeatures: 300}, {MaxFeatures: 1 << 20}} {
		m, err := tr.Train(opts)
		if err != nil {
			t.Fatal(err)
		}
		ref := referenceTrain(refTr, opts)
		if got, want := featureCount(m), len(ref.features); got != want {
			t.Fatalf("%+v: feature count = %d, reference selected %d", opts, got, want)
		}
		for d := 0; d < 200; d++ {
			tf := map[string]int{}
			for i, n := 0, rng.Intn(60); i < n; i++ {
				switch rng.Intn(5) {
				case 0: // known to the dictionary, trained on by no class
					tf[fmt.Sprintf("elsewhere%d", rng.Intn(50))]++
				case 1: // known to nobody
					tf[fmt.Sprintf("unseen%d", rng.Intn(50))]++
				case 2:
					tf[fmt.Sprintf("shared%d", rng.Intn(2000))] += 1 + rng.Intn(4)
				default:
					tf[fmt.Sprintf("c%dw%d", rng.Intn(5), rng.Intn(3000))] += 1 + rng.Intn(4)
				}
			}
			want := ref.LogScores(tf)
			for _, got := range [][]float64{m.LogScoresVector(text.VectorFromKnownCounts(dict, tf)), m.LogScores(tf)} {
				if len(got) != len(want) {
					t.Fatalf("%+v: %d scores, reference %d", opts, len(got), len(want))
				}
				for ci := range want {
					if math.Float64bits(got[ci]) != math.Float64bits(want[ci]) {
						t.Fatalf("%+v doc %d class %d: LogScores = %v, reference %v", opts, d, ci, got[ci], want[ci])
					}
				}
			}
		}
	}
}

// BenchmarkBayesClassify is one visit's classification at the engine's
// settings: a user's model over six folders with 4 000 selected features,
// an 80-term page's raw-count vector, a dictionary shared with the rest of
// the archive.
func BenchmarkBayesClassify(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	dict := text.NewDict()
	tr, _ := trainerWorld(rng, dict, 6, 30, 80)
	m, err := tr.Train(Options{MaxFeatures: 4000})
	if err != nil {
		b.Fatal(err)
	}
	pages := make([]text.Vector, 100)
	for i := range pages {
		tf := map[string]int{}
		for len(tf) < 80 {
			if rng.Intn(4) == 0 {
				tf[fmt.Sprintf("shared%d", rng.Intn(2000))]++
			} else {
				tf[fmt.Sprintf("c%dw%d", i%6, rng.Intn(3000))]++
			}
		}
		pages[i] = text.VectorFromCounts(dict, tf)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ClassifyVector(pages[i%len(pages)])
	}
}

// tiedWorld fills a trainer and the reference trainer with documents of
// single occurrences drawn from small vocabularies, so that many terms
// share one count pattern across the classes and tie on their Fisher
// score. One class only ever names one term: its rate is 1 and its
// within-class spread 0.
func tiedWorld(rng *rand.Rand, dict *text.Dict) (*Trainer, *referenceTrainer) {
	tr := NewTrainer(dict)
	ref := &referenceTrainer{dict: dict, classes: map[string]*referenceAcc{}}
	add := func(class string, tf map[string]int) {
		v := text.VectorFromCounts(dict, tf)
		tr.AddVector(class, v)
		ref.AddVector(class, v)
	}
	for c := 0; c < 4; c++ {
		for d := 0; d < 6; d++ {
			tf := map[string]int{}
			for i := 0; i < 8; i++ {
				if rng.Intn(3) == 0 {
					tf[fmt.Sprintf("both%d", rng.Intn(12))] = 1
				} else {
					tf[fmt.Sprintf("c%dt%d", c, rng.Intn(16))] = 1
				}
			}
			add(fmt.Sprintf("/tied%d", c), tf)
		}
	}
	add("/mono", map[string]int{"solo": 3})
	return tr, ref
}

// TestTrainMatchesReference: the dense trainer selects the reference's
// feature set — the same terms, ties at rank k broken by term string — and
// prepares exactly the rows and slots the reference's per-class maps give,
// bit for bit, on seeded worlds with and without tied scores, for k below,
// inside and past the candidate count.
func TestTrainMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, world := range []func(*rand.Rand, *text.Dict) (*Trainer, *referenceTrainer){
			func(rng *rand.Rand, d *text.Dict) (*Trainer, *referenceTrainer) {
				return trainerWorld(rng, d, 4, 8, 30)
			},
			tiedWorld,
		} {
			dict := text.NewDict()
			// Terms interned in an order unrelated to their strings.
			for i := 0; i < 30; i++ {
				dict.ID(fmt.Sprintf("c%dt%d", i%4, 15-i%16))
			}
			tr, refTr := world(rand.New(rand.NewSource(80+seed)), dict)
			for _, opts := range []Options{{}, {MaxFeatures: 1}, {MaxFeatures: 7}, {MaxFeatures: 40}, {MaxFeatures: 500}, {MaxFeatures: 1 << 20}} {
				m, err := tr.Train(opts)
				if err != nil {
					t.Fatal(err)
				}
				ref := referenceTrain(refTr, opts)
				what := fmt.Sprintf("seed %d, %d classes, %+v", seed, len(m.Classes), opts)
				if !slices.Equal(m.Classes, ref.classes) {
					t.Fatalf("%s: classes %v, reference %v", what, m.Classes, ref.classes)
				}
				// The rows the reference's maps give: every counted term,
				// ranked by string.
				counted := map[int32]bool{}
				for _, tl := range ref.termLog {
					for id := range tl {
						counted[id] = true
					}
				}
				if ref.features != nil && len(counted) != len(ref.features) {
					t.Fatalf("%s: %d features selected, %d of them counted", what, len(ref.features), len(counted))
				}
				terms := dict.Terms()
				var ranked []int32
				for id := range counted {
					ranked = append(ranked, id)
				}
				slices.SortFunc(ranked, func(a, b int32) int { return strings.Compare(terms[a], terms[b]) })
				var wantSlot []int32
				if len(ranked) > 0 {
					wantSlot = make([]int32, slices.Max(ranked)+1)
				}
				var wantRows []float64
				for r, id := range ranked {
					wantSlot[id] = int32(r + 1)
					for ci := range m.Classes {
						lp, ok := ref.termLog[ci][id]
						if !ok {
							lp = ref.defaultLog[ci]
						}
						wantRows = append(wantRows, lp)
					}
				}
				if len(m.slot) != len(wantSlot) {
					t.Fatalf("%s: %d slots, reference %d", what, len(m.slot), len(wantSlot))
				}
				for id := range wantSlot {
					if m.slot[id] != wantSlot[id] {
						t.Fatalf("%s: term %q has slot %d, reference %d", what, terms[id], m.slot[id], wantSlot[id])
					}
				}
				if len(m.rows) != len(wantRows) {
					t.Fatalf("%s: %d row cells, reference %d", what, len(m.rows), len(wantRows))
				}
				for i := range wantRows {
					if math.Float64bits(m.rows[i]) != math.Float64bits(wantRows[i]) {
						t.Fatalf("%s: row cell %d = %v, reference %v", what, i, m.rows[i], wantRows[i])
					}
				}
			}
		}
	}
}
