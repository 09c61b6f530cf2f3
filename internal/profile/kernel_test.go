package profile

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"memex/internal/text"
	"memex/internal/themes"
)

// referenceBuild is Build as it was written before the scoring table: one
// text.Cosine per (document, leaf theme), every positive candidate sorted.
// Kept as the reference the kernel must equal bit for bit.
func referenceBuild(user int64, docs []themes.DocVec, tax *themes.Taxonomy) Profile {
	p := Profile{User: user, Weights: map[int]float64{}}
	leaves := tax.Leaves()
	for _, d := range docs {
		type cand struct {
			id  int
			sim float64
		}
		var best []cand
		for _, id := range leaves {
			s := text.Cosine(d.Vec, tax.Themes[id].Centroid)
			if s <= 0 {
				continue
			}
			best = append(best, cand{id, s})
		}
		sort.Slice(best, func(i, j int) bool {
			if best[i].sim != best[j].sim {
				return best[i].sim > best[j].sim
			}
			return best[i].id < best[j].id
		})
		if len(best) > 3 {
			best = best[:3]
		}
		var total float64
		for _, c := range best {
			total += c.sim
		}
		for _, c := range best {
			w := c.sim / total
			p.Weights[c.id] += w
			mass := w / 2
			for parent := tax.Themes[c.id].Parent; parent >= 0; parent = tax.Themes[parent].Parent {
				p.Weights[parent] += mass
				mass /= 2
			}
		}
	}
	p.normalize()
	return p
}

func sameProfile(t *testing.T, got, want Profile) {
	t.Helper()
	if got.User != want.User || len(got.Weights) != len(want.Weights) {
		t.Fatalf("profile of user %d over %d themes, reference user %d over %d", got.User, len(got.Weights), want.User, len(want.Weights))
	}
	for id, w := range want.Weights {
		if g, ok := got.Weights[id]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("theme %d: weight %v, reference %v", id, g, w)
		}
	}
}

// overlappingDocs draws documents of one topic that also carry words every
// topic shares, so that a document is similar to more themes than the three
// a profile keeps.
func overlappingDocs(d *text.Dict, rng *rand.Rand, topic, n int, base int64) []themes.DocVec {
	var out []themes.DocVec
	for k := 0; k < n; k++ {
		tf := map[string]int{}
		for w := 0; w < 12; w++ {
			tf[fmt.Sprintf("topic%dword%d", topic, rng.Intn(10))]++
		}
		for w := 0; w < 6; w++ {
			tf[fmt.Sprintf("common%d", rng.Intn(8))]++
		}
		out = append(out, themes.DocVec{ID: base + int64(k), Vec: text.VectorFromCounts(d, tf).Normalize()})
	}
	return out
}

func TestBuildMatchesReferenceOnDiscoveredTaxonomy(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d := text.NewDict()
	var ufs []themes.UserFolder
	next := int64(1)
	for u := 1; u <= 6; u++ {
		for topic := 0; topic < 6; topic++ {
			uf := themes.UserFolder{User: int64(u), Path: fmt.Sprintf("/t%d", topic)}
			uf.Docs = overlappingDocs(d, rng, topic, 8, next)
			next += 8
			ufs = append(ufs, uf)
		}
	}
	// MergeSim above the similarity the shared words alone give, so topics
	// stay apart; a low split threshold so some themes gain children.
	tax := themes.Discover(ufs, d, themes.Options{Seed: 32, MergeSim: 0.7, SplitDispersion: 0.15, MinSplitDocs: 20})
	if st := tax.Stats(); st.Leaves < 5 || st.Refined == 0 {
		t.Fatalf("taxonomy too plain to test against: %+v", st)
	}
	for u := int64(1); u <= 8; u++ {
		docs := overlappingDocs(d, rng, int(u)%6, 15, 1000*u)
		docs = append(docs, overlappingDocs(d, rng, int(u+1)%6, 5, 1000*u+500)...)
		docs = append(docs,
			themes.DocVec{ID: 1000*u + 900}, // no terms at all
			themes.DocVec{ID: 1000*u + 901, Vec: text.VectorFromCounts(d, map[string]int{"stranger": 2})},
		)
		sameProfile(t, Build(u, docs, tax), referenceBuild(u, docs, tax))
	}
}

// TestSharesBreakTiesByThemeID puts five identical leaves in a literal
// taxonomy: every document is equally similar to all of them, and the
// three lowest ids must win, as the reference's sort decides.
func TestSharesBreakTiesByThemeID(t *testing.T) {
	d := text.NewDict()
	cen := text.VectorFromCounts(d, map[string]int{"alpha": 2, "beta": 1}).Normalize()
	other := text.VectorFromCounts(d, map[string]int{"alpha": 1, "gamma": 3}).Normalize()
	tax := &themes.Taxonomy{Themes: []themes.Theme{
		{ID: 0, Parent: -1, Children: []int{1, 2, 3}},
		{ID: 1, Parent: 0, Centroid: cen},
		{ID: 2, Parent: 0, Centroid: other},
		{ID: 3, Parent: 0, Centroid: cen},
		{ID: 4, Parent: -1, Centroid: cen},
		{ID: 5, Parent: -1, Centroid: cen},
		{ID: 6, Parent: -1, Centroid: cen},
	}, Roots: []int{0, 4, 5, 6}}
	doc := themes.DocVec{ID: 1, Vec: text.VectorFromCounts(d, map[string]int{"alpha": 1, "beta": 1})}
	shares := NewAssigner(tax).Shares(doc.Vec)
	if len(shares) != 3 || shares[0].Theme != 1 || shares[1].Theme != 3 || shares[2].Theme != 4 {
		t.Fatalf("Shares = %+v, want themes 1, 3, 4", shares)
	}
	sameProfile(t, Build(7, []themes.DocVec{doc}, tax), referenceBuild(7, []themes.DocVec{doc}, tax))
}

// benchTaxonomy is the benchmark world's taxonomy at 8 000 visits: 60 leaf
// themes of 1–3 k terms under 12 roots, a vocabulary of 20 000.
func benchTaxonomy(rng *rand.Rand) *themes.Taxonomy {
	const roots, perRoot, vocab = 12, 5, 20000
	tax := &themes.Taxonomy{}
	for r := 0; r < roots; r++ {
		root := len(tax.Themes)
		tax.Themes = append(tax.Themes, themes.Theme{ID: root, Parent: -1})
		tax.Roots = append(tax.Roots, root)
		for c := 0; c < perRoot; c++ {
			id := len(tax.Themes)
			tax.Themes = append(tax.Themes, themes.Theme{ID: id, Parent: root, Centroid: randomVector(rng, 1000+rng.Intn(2000), vocab)})
			tax.Themes[root].Children = append(tax.Themes[root].Children, id)
		}
	}
	return tax
}

func randomVector(rng *rand.Rand, n, vocab int) text.Vector {
	tf := map[int32]float64{}
	for len(tf) < n {
		tf[int32(rng.Intn(vocab))] = 1 - rng.Float64()
	}
	v := text.Vector{IDs: make([]int32, 0, n)}
	for id := range tf {
		v.IDs = append(v.IDs, id)
	}
	sort.Slice(v.IDs, func(i, j int) bool { return v.IDs[i] < v.IDs[j] })
	for _, id := range v.IDs {
		v.Weights = append(v.Weights, tf[id])
	}
	return v
}

// BenchmarkProfileBuild is one user's profile: 160 documents of 80 terms
// (8 000 visits over 50 users) against the taxonomy above.
func BenchmarkProfileBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tax := benchTaxonomy(rng)
	docs := make([]themes.DocVec, 160)
	for i := range docs {
		docs[i] = themes.DocVec{ID: int64(i), Vec: randomVector(rng, 80, 20000)}
	}
	Build(1, docs[:1], tax) // the scoring table is built once per taxonomy, not per profile
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(1, docs, tax)
	}
}
