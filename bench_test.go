// Root benchmark suite: the A1–A4 ablation benches for the design
// decisions DESIGN.md §3 calls out. (E1–E10 have one runner,
// internal/experiments: cmd/memex-bench prints them, its own tests
// assert them.)
//
// Run with: go test -bench=. -benchmem
package memex

import (
	"fmt"
	"math/rand"
	"testing"

	"memex/internal/classify"
	"memex/internal/cluster"
	"memex/internal/kvstore"
	"memex/internal/sim"
	"memex/internal/text"
	"memex/internal/webcorpus"
)

// --- Ablation benches (DESIGN.md §3) ---

// e1World builds the labelled bookmark world shared by the classifier
// ablations.
func e1World(b *testing.B) (*webcorpus.Corpus, *sim.Trace) {
	b.Helper()
	corpus := webcorpus.Generate(webcorpus.Config{
		Seed: 7, TopTopics: 8, SubPerTopic: 6, PagesPerLeaf: 30,
		FrontPageFrac: 0.7, FrontWords: 9, FrontTopicMix: 0.09,
	})
	trace := sim.Simulate(corpus, sim.Config{Seed: 8, Users: 60, Days: 25, BookmarkProb: 0.3})
	return corpus, trace
}

// BenchmarkAblationFeatureSelection contrasts naive Bayes training and
// accuracy with the full vocabulary vs Fisher-selected features (design
// decision S6).
func BenchmarkAblationFeatureSelection(b *testing.B) {
	corpus, trace := e1World(b)
	train := map[int64]string{}
	var test []int64
	for i, bm := range trace.Bookmarks {
		label := corpus.TopicPath(corpus.Page(bm.Page).Topic)
		if i%5 != 4 {
			train[bm.Page] = label
		} else {
			test = append(test, bm.Page)
		}
	}
	for _, variant := range []struct {
		name string
		opts classify.Options
	}{
		{"allFeatures", classify.Options{}},
		{"fisher2000", classify.Options{MaxFeatures: 2000}},
		{"fisher500", classify.Options{MaxFeatures: 500}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				tr := classify.NewTrainer(nil)
				for page, label := range train {
					tr.AddCounts(label, text.TermCounts(corpus.Page(page).Text))
				}
				model, err := tr.Train(variant.opts)
				if err != nil {
					b.Fatal(err)
				}
				correct := 0
				for _, page := range test {
					got, _ := model.Classify(text.TermCounts(corpus.Page(page).Text))
					if got == corpus.TopicPath(corpus.Page(page).Topic) {
						correct++
					}
				}
				acc = float64(correct) / float64(len(test))
			}
			b.ReportMetric(acc, "accuracy")
		})
	}
}

// BenchmarkAblationBuckshot contrasts full HAC with buckshot-sampled
// clustering on time and purity (design decision S8: "constant interaction
// time").
func BenchmarkAblationBuckshot(b *testing.B) {
	d := text.NewDict()
	rng := rand.New(rand.NewSource(7))
	var items []cluster.Item
	labels := map[int64]string{}
	id := int64(0)
	for t := 0; t < 8; t++ {
		for p := 0; p < 50; p++ {
			tf := map[string]int{}
			for w := 0; w < 15; w++ {
				tf[fmt.Sprintf("t%dw%d", t, rng.Intn(12))]++
			}
			items = append(items, cluster.Item{ID: id, Vec: text.VectorFromCounts(d, tf).Normalize()})
			labels[id] = fmt.Sprint(t)
			id++
		}
	}
	b.Run("fullHAC", func(b *testing.B) {
		var purity float64
		for i := 0; i < b.N; i++ {
			cs := cluster.HAC(items, 8, 0)
			purity = cluster.Purity(cs, labels)
		}
		b.ReportMetric(purity, "purity")
	})
	b.Run("buckshot", func(b *testing.B) {
		var purity float64
		for i := 0; i < b.N; i++ {
			cs := cluster.Buckshot(items, 8, rand.New(rand.NewSource(int64(i))))
			purity = cluster.Purity(cs, labels)
		}
		b.ReportMetric(purity, "purity")
	})
}

// BenchmarkAblationLinkWeight sweeps the hyperlink evidence weight λ_L of
// the combined classifier (DESIGN.md §4).
func BenchmarkAblationLinkWeight(b *testing.B) {
	corpus, trace := e1World(b)
	seen := map[int64]bool{}
	var docs []classify.Doc
	truth := map[int64]string{}
	tr := classify.NewTrainer(nil)
	i := 0
	for _, bm := range trace.Bookmarks {
		if seen[bm.Page] {
			continue
		}
		seen[bm.Page] = true
		p := corpus.Page(bm.Page)
		label := corpus.TopicPath(p.Topic)
		d := classify.Doc{ID: bm.Page, TF: text.TermCounts(p.Text)}
		for _, l := range p.Links {
			d.Neighbors = append(d.Neighbors, l)
		}
		if i%5 != 4 {
			d.Label = label
			tr.AddCounts(label, d.TF)
		} else {
			truth[bm.Page] = label
		}
		docs = append(docs, d)
		i++
	}
	// Keep only in-set neighbours.
	for i := range docs {
		var nb []int64
		for _, l := range docs[i].Neighbors {
			if seen[l] {
				nb = append(nb, l)
			}
		}
		docs[i].Neighbors = nb
	}
	model, err := tr.Train(classify.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, lw := range []float64{0.5, 1.0, 2.0, 4.0} {
		b.Run(fmt.Sprintf("lambdaL=%.1f", lw), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				ht := classify.NewHypertext(model, classify.HypertextOptions{
					LinkWeight: lw, DisableFolders: true,
				})
				acc = classify.Accuracy(ht.ClassifyGraph(docs), truth)
			}
			b.ReportMetric(acc, "accuracy")
		})
	}
}

// BenchmarkAblationWALSync contrasts kvstore commit latency across WAL
// durability policies (design decision S2).
func BenchmarkAblationWALSync(b *testing.B) {
	for _, variant := range []struct {
		name string
		sync kvstore.SyncPolicy
	}{
		{"fsyncAlways", kvstore.SyncAlways},
		{"groupCommit", kvstore.SyncGroup},
	} {
		b.Run(variant.name, func(b *testing.B) {
			s, err := kvstore.Open(b.TempDir(), kvstore.Options{Sync: variant.sync})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := []byte(fmt.Sprintf("k%09d", i))
				if err := s.Put(key, []byte("value-payload-16")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
