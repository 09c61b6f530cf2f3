package classify

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"memex/internal/text"
)

// featureCount is the number of features training selected (0 = all).
func featureCount(m *Bayes) int {
	if !m.selected {
		return 0
	}
	return len(m.rows) / len(m.Classes)
}

func trainBasic(t *testing.T, opts Options) *Bayes {
	t.Helper()
	tr := NewTrainer(nil)
	music := []string{
		"symphony orchestra violin concerto classical composer",
		"opera soprano aria composer orchestra",
		"piano sonata classical violin chamber",
	}
	cooking := []string{
		"recipe pasta sauce garlic olive oil",
		"baking bread flour yeast oven recipe",
		"soup stock vegetables simmer recipe",
	}
	travel := []string{
		"flight hotel itinerary beach island visa",
		"train backpacking hostel mountains trail visa",
		"airline luggage passport hotel booking",
	}
	for _, d := range music {
		tr.AddCounts("music", text.TermCounts(d))
	}
	for _, d := range cooking {
		tr.AddCounts("cooking", text.TermCounts(d))
	}
	for _, d := range travel {
		tr.AddCounts("travel", text.TermCounts(d))
	}
	m, err := tr.Train(opts)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return m
}

func TestBayesBasic(t *testing.T) {
	m := trainBasic(t, Options{})
	cases := map[string]string{
		"violin concerto performed by the orchestra": "music",
		"a recipe with garlic and olive oil":         "cooking",
		"book a hotel and flight for the island":     "travel",
	}
	for doc, want := range cases {
		got, conf := m.Classify(text.TermCounts(doc))
		if got != want {
			t.Errorf("Classify(%q) = %q (conf %.3f), want %q", doc, got, conf, want)
		}
		if conf <= 1.0/3 {
			t.Errorf("confidence %v not above uniform", conf)
		}
	}
}

func TestPosteriorsSumToOne(t *testing.T) {
	m := trainBasic(t, Options{})
	post := m.PosteriorsVector(text.VectorFromKnownCounts(m.dict, map[string]int{"violin": 2, "recipe": 1}))
	var sum float64
	for _, p := range post {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("posteriors sum to %v", sum)
	}
}

func TestTrainNeedsTwoClasses(t *testing.T) {
	tr := NewTrainer(nil)
	tr.AddCounts("only", text.TermCounts("some text here"))
	if _, err := tr.Train(Options{}); err == nil {
		t.Fatal("training with one class accepted")
	}
}

func TestUnknownTermsIgnored(t *testing.T) {
	m := trainBasic(t, Options{})
	class, _ := m.Classify(map[string]int{"zzzzunseen": 5, "violin": 1})
	if class != "music" {
		t.Fatalf("unseen terms changed prediction: %q", class)
	}
}

func TestFeatureSelectionKeepsAccuracy(t *testing.T) {
	full := trainBasic(t, Options{})
	sel := trainBasic(t, Options{MaxFeatures: 10})
	if featureCount(sel) == 0 || featureCount(sel) > 10 {
		t.Fatalf("feature count = %d", featureCount(sel))
	}
	for _, doc := range []string{
		"violin concerto orchestra",
		"recipe garlic sauce",
		"hotel flight visa",
	} {
		cf, _ := full.Classify(text.TermCounts(doc))
		cs, _ := sel.Classify(text.TermCounts(doc))
		if cf != cs {
			t.Errorf("feature selection changed %q: %q vs %q", doc, cf, cs)
		}
	}
}

func TestClassIndex(t *testing.T) {
	m := trainBasic(t, Options{})
	if m.ClassIndex("music") < 0 || m.ClassIndex("absent") != -1 {
		t.Fatal("ClassIndex wrong")
	}
}

// synthCorpus builds a two-topic hypertext corpus where text alone is weak
// (front pages share most vocabulary) but links and folders carry signal.
func synthCorpus(rng *rand.Rand, n int) (docs []Doc, truth map[int64]string) {
	truth = map[int64]string{}
	shared := []string{"home", "welcome", "links", "index", "contact", "about"}
	topicTerms := map[string][]string{
		"A": {"alpha", "anchor", "argon"},
		"B": {"beta", "birch", "boron"},
	}
	classes := []string{"A", "B"}
	for i := 0; i < n; i++ {
		class := classes[i%2]
		tf := map[string]int{}
		// Mostly shared boilerplate…
		for j := 0; j < 8; j++ {
			tf[shared[rng.Intn(len(shared))]]++
		}
		// …a whisper of topical text.
		if rng.Float64() < 0.4 {
			terms := topicTerms[class]
			tf[terms[rng.Intn(len(terms))]]++
		}
		d := Doc{ID: int64(i), TF: tf}
		truth[d.ID] = class
		docs = append(docs, d)
	}
	// Links: mostly intra-class.
	for i := range docs {
		for k := 0; k < 3; k++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			sameClass := truth[docs[i].ID] == truth[docs[j].ID]
			if sameClass || rng.Float64() < 0.15 {
				docs[i].Neighbors = append(docs[i].Neighbors, docs[j].ID)
			}
		}
	}
	// Folders: pure per class.
	for i := range docs {
		if rng.Float64() < 0.5 {
			docs[i].Folder = "folder-" + truth[docs[i].ID]
		}
	}
	return docs, truth
}

func TestHypertextBeatsTextOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	docs, truth := synthCorpus(rng, 400)

	// Label 30% for training; classify the rest.
	tr := NewTrainer(nil)
	test := make([]Doc, 0, len(docs))
	testTruth := map[int64]string{}
	for i := range docs {
		if i%10 < 3 {
			docs[i].Label = truth[docs[i].ID]
			tr.AddCounts(docs[i].Label, docs[i].TF)
		} else {
			testTruth[docs[i].ID] = truth[docs[i].ID]
		}
		test = append(test, docs[i])
	}
	model, err := tr.Train(Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Text-only.
	textPred := map[int64]string{}
	for i := range test {
		if test[i].Label != "" {
			continue
		}
		c, _ := model.Classify(test[i].TF)
		textPred[test[i].ID] = c
	}
	textAcc := Accuracy(textPred, testTruth)

	// Full hypertext model.
	ht := NewHypertext(model, HypertextOptions{})
	fullPred := ht.ClassifyGraph(test)
	fullAcc := Accuracy(fullPred, testTruth)

	t.Logf("text-only=%.3f full=%.3f", textAcc, fullAcc)
	if fullAcc <= textAcc {
		t.Fatalf("hypertext model (%.3f) did not beat text-only (%.3f)", fullAcc, textAcc)
	}
	if fullAcc < 0.75 {
		t.Fatalf("full model accuracy %.3f below expected band", fullAcc)
	}
}

func TestAblationsOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	docs, truth := synthCorpus(rng, 400)
	tr := NewTrainer(nil)
	test := make([]Doc, 0, len(docs))
	testTruth := map[int64]string{}
	for i := range docs {
		if i%10 < 3 {
			docs[i].Label = truth[docs[i].ID]
			tr.AddCounts(docs[i].Label, docs[i].TF)
		} else {
			testTruth[docs[i].ID] = truth[docs[i].ID]
		}
		test = append(test, docs[i])
	}
	model, _ := tr.Train(Options{})

	run := func(opts HypertextOptions) float64 {
		ht := NewHypertext(model, opts)
		return Accuracy(ht.ClassifyGraph(test), testTruth)
	}
	textOnly := run(HypertextOptions{DisableLinks: true, DisableFolders: true})
	full := run(HypertextOptions{})
	if full <= textOnly {
		t.Fatalf("full (%v) <= textOnly (%v)", full, textOnly)
	}
}

func TestLabelledDocsClamped(t *testing.T) {
	m := trainBasic(t, Options{})
	ht := NewHypertext(m, HypertextOptions{})
	docs := []Doc{
		{ID: 1, Label: "travel", TF: map[string]int{"violin": 10}}, // label wins over text
		{ID: 2, TF: map[string]int{"violin": 3}, Neighbors: []int64{1}},
	}
	pred := ht.ClassifyGraph(docs)
	if pred[1] != "travel" {
		t.Fatalf("labelled doc reassigned to %q", pred[1])
	}
}

func TestAccuracyEdgeCases(t *testing.T) {
	if Accuracy(nil, nil) != 0 {
		t.Fatal("Accuracy(nil,nil) != 0")
	}
	truth := map[int64]string{1: "a", 2: "b"}
	if got := Accuracy(map[int64]string{1: "a"}, truth); got != 0.5 {
		t.Fatalf("Accuracy = %v", got)
	}
}

func BenchmarkClassify(b *testing.B) {
	tr := NewTrainer(nil)
	rng := rand.New(rand.NewSource(1))
	for c := 0; c < 20; c++ {
		for d := 0; d < 30; d++ {
			tf := map[string]int{}
			for w := 0; w < 50; w++ {
				tf[fmt.Sprintf("w%d_%d", c, rng.Intn(100))]++
			}
			tr.AddCounts(fmt.Sprintf("class%d", c), tf)
		}
	}
	m, _ := tr.Train(Options{MaxFeatures: 500})
	doc := map[string]int{}
	for w := 0; w < 30; w++ {
		doc[fmt.Sprintf("w5_%d", w)]++
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Classify(doc)
	}
}
