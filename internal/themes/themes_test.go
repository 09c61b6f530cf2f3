package themes

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"memex/internal/text"
)

// buildFolders fabricates a community: nUsers users, each with folders over
// some of nTopics topics. Topic t's docs use vocabulary "t<t>term<i>".
// Users name folders idiosyncratically; docsPerFolder docs each.
func buildFolders(rng *rand.Rand, d *text.Dict, nUsers, nTopics, docsPerFolder int) ([]UserFolder, map[int64]int) {
	var out []UserFolder
	docTopic := map[int64]int{}
	nextDoc := int64(1)
	for u := 1; u <= nUsers; u++ {
		// Each user covers 2 topics.
		t1 := rng.Intn(nTopics)
		t2 := (t1 + 1 + rng.Intn(nTopics-1)) % nTopics
		for _, topic := range []int{t1, t2} {
			name := fmt.Sprintf("/u%d-topic%d", u, topic)
			if u%2 == 0 {
				name = fmt.Sprintf("/stuff/topic%d", topic)
			}
			uf := UserFolder{User: int64(u), Path: name}
			for k := 0; k < docsPerFolder; k++ {
				tf := map[string]int{}
				for w := 0; w < 20; w++ {
					tf[fmt.Sprintf("t%dterm%d", topic, rng.Intn(15))]++
				}
				v := text.VectorFromCounts(d, tf).Normalize()
				uf.Docs = append(uf.Docs, DocVec{ID: nextDoc, Vec: v})
				docTopic[nextDoc] = topic
				nextDoc++
			}
			out = append(out, uf)
		}
	}
	return out, docTopic
}

func TestDiscoverCoarsensAcrossUsers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := text.NewDict()
	ufs, docTopic := buildFolders(rng, d, 12, 4, 6)
	tax := Discover(ufs, d, Options{Seed: 2})

	// Folders about the same topic from different users must merge: the
	// number of roots should be close to the number of topics, far below
	// the number of folders.
	if len(tax.Roots) > 8 {
		t.Fatalf("too little coarsening: %d roots from %d folders", len(tax.Roots), len(ufs))
	}
	if len(tax.Roots) < 2 {
		t.Fatalf("over-coarsened: %d roots", len(tax.Roots))
	}
	// Theme purity: docs in one theme should share a ground-truth topic.
	for _, th := range tax.Themes {
		if len(th.Docs) == 0 {
			continue
		}
		counts := map[int]int{}
		for _, id := range th.Docs {
			counts[docTopic[id]]++
		}
		best, total := 0, 0
		for _, n := range counts {
			total += n
			if n > best {
				best = n
			}
		}
		if p := float64(best) / float64(total); p < 0.9 {
			t.Fatalf("theme %d purity %.2f", th.ID, p)
		}
	}
	// Multi-user contribution.
	multi := false
	for _, r := range tax.Roots {
		if len(tax.Themes[r].Contributors) > 1 {
			multi = true
		}
	}
	if !multi {
		t.Fatal("no theme has contributions from multiple users")
	}
}

func TestDiscoverRefinesDispersedThemes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := text.NewDict()
	// One mega-folder per user mixing two distinct sub-vocabularies: the
	// merged theme is dispersed and must split.
	var ufs []UserFolder
	nextDoc := int64(1)
	for u := 1; u <= 6; u++ {
		uf := UserFolder{User: int64(u), Path: "/music"}
		for k := 0; k < 20; k++ {
			sub := k % 2
			tf := map[string]int{}
			for w := 0; w < 20; w++ {
				tf[fmt.Sprintf("sub%dword%d", sub, rng.Intn(12))]++
			}
			uf.Docs = append(uf.Docs, DocVec{ID: nextDoc, Vec: text.VectorFromCounts(d, tf).Normalize()})
			nextDoc++
		}
		ufs = append(ufs, uf)
	}
	tax := Discover(ufs, d, Options{Seed: 4, MinSplitDocs: 30})
	st := tax.Stats()
	if st.Refined == 0 {
		t.Fatalf("dispersed theme not refined: %+v", st)
	}
	// The split children should separate the sub-vocabularies.
	var kids []int
	for _, th := range tax.Themes {
		if th.Parent >= 0 {
			kids = append(kids, th.ID)
		}
	}
	if len(kids) < 2 {
		t.Fatalf("children = %v", kids)
	}
}

func TestTightThemeNotRefined(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := text.NewDict()
	var ufs []UserFolder
	nextDoc := int64(1)
	for u := 1; u <= 4; u++ {
		uf := UserFolder{User: int64(u), Path: "/cooking"}
		for k := 0; k < 25; k++ {
			tf := map[string]int{}
			for w := 0; w < 20; w++ {
				tf[fmt.Sprintf("cookword%d", rng.Intn(10))]++
			}
			uf.Docs = append(uf.Docs, DocVec{ID: nextDoc, Vec: text.VectorFromCounts(d, tf).Normalize()})
			nextDoc++
		}
		ufs = append(ufs, uf)
	}
	tax := Discover(ufs, d, Options{Seed: 6})
	if st := tax.Stats(); st.Refined != 0 {
		t.Fatalf("tight theme was refined: %+v", st)
	}
}

func TestAssignAndFit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := text.NewDict()
	ufs, docTopic := buildFolders(rng, d, 10, 3, 8)
	tax := Discover(ufs, d, Options{Seed: 8})

	// A fresh doc from topic 0 vocabulary must land in a theme whose docs
	// are predominantly topic 0.
	tf := map[string]int{}
	for w := 0; w < 20; w++ {
		tf[fmt.Sprintf("t0term%d", rng.Intn(15))]++
	}
	v := text.VectorFromCounts(d, tf).Normalize()
	id, ok := tax.Assign(v)
	if !ok {
		t.Fatal("Assign failed")
	}
	counts := map[int]int{}
	for _, doc := range tax.Themes[id].Docs {
		counts[docTopic[doc]]++
	}
	if counts[0] == 0 {
		t.Fatalf("assigned theme %d has no topic-0 docs: %v", id, counts)
	}

	var all []DocVec
	for _, uf := range ufs {
		all = append(all, uf.Docs...)
	}
	fit := tax.Fit(all)
	if fit < 0.5 {
		t.Fatalf("Fit = %v", fit)
	}
	if tax.Fit(nil) != 0 {
		t.Fatal("Fit(nil) != 0")
	}
}

func TestEmptyInputs(t *testing.T) {
	d := text.NewDict()
	tax := Discover(nil, d, Options{})
	if len(tax.Themes) != 0 {
		t.Fatal("themes from nothing")
	}
	if _, ok := tax.Assign(text.Vector{}); ok {
		t.Fatal("Assign on empty taxonomy returned ok")
	}
	// Folders with no docs are skipped.
	tax = Discover([]UserFolder{{User: 1, Path: "/empty"}}, d, Options{})
	if len(tax.Themes) != 0 {
		t.Fatal("empty folder produced a theme")
	}
}

func TestLabelsAndSignatures(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := text.NewDict()
	var ufs []UserFolder
	nextDoc := int64(1)
	// Three users agree on the name "cycling"; one calls it "bikes".
	for u := 1; u <= 4; u++ {
		name := "/cycling"
		if u == 4 {
			name = "/bikes"
		}
		uf := UserFolder{User: int64(u), Path: name}
		for k := 0; k < 5; k++ {
			tf := map[string]int{}
			for w := 0; w < 15; w++ {
				tf[fmt.Sprintf("cycleword%d", rng.Intn(8))]++
			}
			uf.Docs = append(uf.Docs, DocVec{ID: nextDoc, Vec: text.VectorFromCounts(d, tf).Normalize()})
			nextDoc++
		}
		ufs = append(ufs, uf)
	}
	tax := Discover(ufs, d, Options{Seed: 10})
	if len(tax.Roots) != 1 {
		t.Fatalf("roots = %d", len(tax.Roots))
	}
	th := tax.Themes[tax.Roots[0]]
	if th.Label != "cycling" {
		t.Fatalf("Label = %q, want majority name", th.Label)
	}
	if len(th.Signature) == 0 {
		t.Fatal("no signature terms")
	}
	found := false
	for _, s := range th.Signature {
		if s == "cycleword0" || s == "cycleword1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("signature %v missing topical terms", th.Signature)
	}
}

func TestStats(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := text.NewDict()
	ufs, _ := buildFolders(rng, d, 8, 3, 6)
	tax := Discover(ufs, d, Options{Seed: 12})
	st := tax.Stats()
	if st.Themes == 0 || st.Leaves == 0 || st.MaxDepth < 1 {
		t.Fatalf("Stats = %+v", st)
	}
	if st.MergedIn != len(ufs) {
		t.Fatalf("MergedIn = %d, want %d", st.MergedIn, len(ufs))
	}
}

func BenchmarkDiscover(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	d := text.NewDict()
	ufs, _ := buildFolders(rng, d, 40, 8, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Discover(ufs, d, Options{Seed: 14})
	}
}

// referenceAssign is Assign as it was written before the scoring table:
// one text.Cosine per leaf theme. Kept as the reference.
func referenceAssign(tax *Taxonomy, v text.Vector) (int, bool) {
	best, bestSim := -1, -1.0
	for i := range tax.Themes {
		th := &tax.Themes[i]
		if len(th.Children) > 0 {
			continue
		}
		if s := text.Cosine(v, th.Centroid); s > bestSim {
			best, bestSim = i, s
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// refinedTaxonomy discovers a taxonomy with inner themes as well as
// leaves, and returns documents to score against it: every training
// document, documents of a vocabulary no theme holds, and an empty one.
func refinedTaxonomy(t *testing.T) (*Taxonomy, []DocVec) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	d := text.NewDict()
	ufs, _ := buildFolders(rng, d, 12, 4, 10)
	// A dispersed folder, so that refinement gives the taxonomy depth.
	mixed := UserFolder{User: 99, Path: "/mixed"}
	for k := 0; k < 60; k++ {
		tf := map[string]int{}
		for w := 0; w < 20; w++ {
			tf[fmt.Sprintf("sub%dword%d", k%2, rng.Intn(12))]++
		}
		mixed.Docs = append(mixed.Docs, DocVec{ID: int64(10000 + k), Vec: text.VectorFromCounts(d, tf).Normalize()})
	}
	ufs = append(ufs, mixed)
	tax := Discover(ufs, d, Options{Seed: 22, MinSplitDocs: 30})
	if st := tax.Stats(); st.Refined == 0 || st.Leaves < 3 {
		t.Fatalf("taxonomy too plain to test against: %+v", st)
	}
	var docs []DocVec
	for _, uf := range ufs {
		docs = append(docs, uf.Docs...)
	}
	for k := 0; k < 10; k++ {
		tf := map[string]int{fmt.Sprintf("stranger%d", k): 1 + k, fmt.Sprintf("t1term%d", k): 1}
		docs = append(docs, DocVec{ID: int64(20000 + k), Vec: text.VectorFromCounts(d, tf).Normalize()})
	}
	docs = append(docs, DocVec{ID: 30000})
	return tax, docs
}

func TestAssignAndFitMatchReference(t *testing.T) {
	tax, docs := refinedTaxonomy(t)
	var sum float64
	for _, doc := range docs {
		got, gotOK := tax.Assign(doc.Vec)
		want, wantOK := referenceAssign(tax, doc.Vec)
		if got != want || gotOK != wantOK {
			t.Fatalf("doc %d: Assign = %d,%v, reference %d,%v", doc.ID, got, gotOK, want, wantOK)
		}
		sum += text.Cosine(doc.Vec, tax.Themes[want].Centroid)
	}
	if got, want := tax.Fit(docs), sum/float64(len(docs)); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Fit = %v, reference %v", got, want)
	}

	leaves, sims := tax.LeafCosines(docs[0].Vec, nil)
	if len(leaves) != tax.Stats().Leaves || len(sims) != len(leaves) {
		t.Fatalf("LeafCosines returned %d leaves and %d scores, taxonomy has %d leaves", len(leaves), len(sims), tax.Stats().Leaves)
	}
	for i, id := range leaves {
		if want := text.Cosine(docs[0].Vec, tax.Themes[id].Centroid); math.Float64bits(sims[i]) != math.Float64bits(want) {
			t.Fatalf("leaf %d: score %v, Cosine %v", id, sims[i], want)
		}
	}
}

// TestDiscoverLeavesDocumentsAlone: a folder of one document used to get
// that document's own vector back as its centroid and normalise it in
// place, so discovery rescaled its input.
func TestDiscoverLeavesDocumentsAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	d := text.NewDict()
	ufs, _ := buildFolders(rng, d, 6, 3, 1) // one document per folder
	for i := range ufs {
		ufs[i].Docs[0].Vec.Scale(3) // not unit length: a Normalize would show
	}
	var before [][]float64
	for _, uf := range ufs {
		before = append(before, append([]float64(nil), uf.Docs[0].Vec.Weights...))
	}
	Discover(ufs, d, Options{Seed: 24})
	for i, uf := range ufs {
		for j, w := range uf.Docs[0].Vec.Weights {
			if w != before[i][j] {
				t.Fatalf("folder %s: Discover changed its document's weight %d from %v to %v", uf.Path, j, before[i][j], w)
			}
		}
	}
}

// TestFirstScoringIsSafeFromManyGoroutines: the scoring table is built at
// the first score, and a server's requests share one taxonomy.
func TestFirstScoringIsSafeFromManyGoroutines(t *testing.T) {
	tax, docs := refinedTaxonomy(t)
	want := make([]int, len(docs))
	for i, doc := range docs {
		want[i], _ = referenceAssign(tax, doc.Vec)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, doc := range docs {
				if got, _ := tax.Assign(doc.Vec); got != want[i] {
					t.Errorf("doc %d: Assign = %d, want %d", doc.ID, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
