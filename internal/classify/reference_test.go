package classify

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"memex/internal/text"
)

// referenceBayes is the model as Train built it before the scoring table:
// one term-id → log-probability map per class and a feature set, scored by
// a dictionary lookup, a feature check and a map lookup per class for every
// term. Kept as the reference the prepared rows must equal bit for bit.
type referenceBayes struct {
	dict       *text.Dict
	logPrior   []float64
	termLog    []map[int32]float64
	defaultLog []float64
	features   map[int32]bool
}

func referenceTrain(tr *Trainer, opts Options) *referenceBayes {
	if opts.Smoothing <= 0 {
		opts.Smoothing = 0.1
	}
	classes := make([]string, 0, len(tr.classes))
	for c := range tr.classes {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	m := &referenceBayes{dict: tr.dict}
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
		denom := float64(acc.totalTerms) + opts.Smoothing*float64(vocabSize)
		for id, n := range acc.termCounts {
			if m.features != nil && !m.features[id] {
				continue
			}
			tl[id] = math.Log((float64(n) + opts.Smoothing) / denom)
		}
		m.termLog = append(m.termLog, tl)
		m.defaultLog = append(m.defaultLog, math.Log(opts.Smoothing/denom))
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

// trainerWorld fills a trainer over a shared dictionary with classes folders
// of docs documents each, every class drawing most of its words from its own
// vocabulary and the rest from one all classes share.
func trainerWorld(rng *rand.Rand, dict *text.Dict, classes, docs, terms int) *Trainer {
	tr := NewTrainer(dict)
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
			tr.AddCounts(fmt.Sprintf("/folder%d", c), tf)
		}
	}
	return tr
}

// TestLogScoresMatchReference: over the id form — the vector the engine
// classifies — and through the string entry point, with and without
// feature selection, every score is bit for bit the reference's sum in
// sorted-term order, for pages that name terms no class was trained on,
// terms the dictionary holds from other pages, and terms nobody knows.
func TestLogScoresMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	dict := text.NewDict()
	tr := trainerWorld(rng, dict, 5, 12, 40)
	// The dictionary is the engine's, shared with every other page: it
	// knows terms no class was trained on.
	for i := 0; i < 50; i++ {
		dict.ID(fmt.Sprintf("elsewhere%d", i))
	}
	for _, opts := range []Options{{}, {MaxFeatures: 300}, {MaxFeatures: 1 << 20}, {Smoothing: 1}} {
		m, err := tr.Train(opts)
		if err != nil {
			t.Fatal(err)
		}
		ref := referenceTrain(tr, opts)
		if got, want := m.FeatureCount(), len(ref.features); got != want {
			t.Fatalf("%+v: FeatureCount = %d, reference selected %d", opts, got, want)
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
	m, err := trainerWorld(rng, dict, 6, 30, 80).Train(Options{MaxFeatures: 4000})
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
