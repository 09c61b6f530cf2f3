// Package profile canonicalises surfers' interests the way §4 describes:
// "a user profile is a set of weights associated with each node of a theme
// hierarchy". Profiles are built by assigning a user's visited/bookmarked
// documents to community themes, propagating mass up the theme tree, and
// normalising. Comparing surfers through these weights — rather than raw
// URL-set overlap — is what makes collaborative recommendation work
// (experiment E7).
//
// Building a profile is two steps, and an Assigner offers them apart: a
// document's Shares — its three nearest leaf themes, found by one
// themes.Taxonomy.LeafCosines pass — depend on the document alone, so a
// caller profiling a whole community (core.Engine.Recommend) computes them
// once per page; Profile then accumulates one user's documents. Build does
// both for one user. Float sums run in a fixed order (documents as given,
// themes by id), so equal inputs give equal bits.
package profile

import (
	"math"
	"sort"

	"memex/internal/text"
	"memex/internal/themes"
)

// Profile is a user's weight per theme id (normalized to unit L2 norm).
type Profile struct {
	User    int64
	Weights map[int]float64
}

// Share is one document's weight on one leaf theme.
type Share struct {
	Theme  int
	Weight float64
}

// Assigner spreads documents over one taxonomy's leaf themes. It holds the
// score buffer the kernel writes into, so it serves one goroutine.
type Assigner struct {
	tax  *themes.Taxonomy
	sims []float64
}

// NewAssigner returns an assigner over tax.
func NewAssigner(tax *themes.Taxonomy) *Assigner { return &Assigner{tax: tax} }

// Shares is a document's soft assignment: its mass of one spread over its
// (up to) three most similar leaf themes, proportional to cosine — which
// keeps profiles robust to noisy theme boundaries. Equally similar themes
// rank by id. It depends on the document and the taxonomy only, so a
// caller building many users' profiles computes it once per page.
func (a *Assigner) Shares(v text.Vector) []Share {
	var leaves []int
	leaves, a.sims = a.tax.LeafCosines(v, a.sims)
	var best [3]Share // Weight holds the cosine until the total is known
	n := 0
	for i, s := range a.sims {
		if s <= 0 {
			continue
		}
		// leaves come in increasing id, so a later theme displaces an
		// earlier one only when strictly more similar.
		at := n
		for at > 0 && s > best[at-1].Weight {
			at--
		}
		if at == len(best) {
			continue
		}
		if n < len(best) {
			n++
		}
		copy(best[at+1:n], best[at:n-1])
		best[at] = Share{leaves[i], s}
	}
	var total float64
	for _, c := range best[:n] {
		total += c.Weight
	}
	out := make([]Share, n)
	for i, c := range best[:n] {
		out[i] = Share{c.Theme, c.Weight / total}
	}
	return out
}

// Profile accumulates documents' shares, in the order given, into the
// user's profile. Half of each increment also propagates to ancestor
// themes with geometric decay so that users who share a broad interest but
// different sub-themes still overlap.
func (a *Assigner) Profile(user int64, docs [][]Share) Profile {
	p := Profile{User: user, Weights: map[int]float64{}}
	for _, shares := range docs {
		for _, c := range shares {
			p.Weights[c.Theme] += c.Weight
			mass := c.Weight / 2
			for parent := a.tax.Themes[c.Theme].Parent; parent >= 0; parent = a.tax.Themes[parent].Parent {
				p.Weights[parent] += mass
				mass /= 2
			}
		}
	}
	p.normalize()
	return p
}

// Build assigns each document vector to community themes (Shares) and
// accumulates the weights (Profile).
func Build(user int64, docs []themes.DocVec, tax *themes.Taxonomy) Profile {
	a := NewAssigner(tax)
	shares := make([][]Share, len(docs))
	for i, d := range docs {
		shares[i] = a.Shares(d.Vec)
	}
	return a.Profile(user, shares)
}

// normalize scales the weights to unit length. The squares are summed in
// theme-id order: in map order the norm's last bits, and with them every
// weight's, would differ from one call to the next.
func (p *Profile) normalize() {
	var sum float64
	for _, id := range p.themeIDs() {
		sum += p.Weights[id] * p.Weights[id]
	}
	if sum == 0 {
		return
	}
	norm := math.Sqrt(sum)
	for k := range p.Weights {
		p.Weights[k] /= norm
	}
}

// Similarity is the cosine between two profiles, summed in theme-id order
// (map order would move its last bits, and a near-tie between two peers
// with them, from one call to the next).
func Similarity(a, b Profile) float64 {
	if len(a.Weights) > len(b.Weights) {
		a, b = b, a
	}
	var dot float64
	for _, id := range a.themeIDs() {
		dot += a.Weights[id] * b.Weights[id]
	}
	return dot
}

// themeIDs returns the ids of the themes p has weight on, ascending.
func (p Profile) themeIDs() []int {
	ids := make([]int, 0, len(p.Weights))
	for id := range p.Weights {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// TopThemes returns the user's k strongest theme ids, descending.
func (p Profile) TopThemes(k int) []int {
	ids := p.themeIDs()
	sort.Slice(ids, func(i, j int) bool {
		if p.Weights[ids[i]] != p.Weights[ids[j]] {
			return p.Weights[ids[i]] > p.Weights[ids[j]]
		}
		return ids[i] < ids[j]
	})
	if k < len(ids) {
		ids = ids[:k]
	}
	return ids
}

// URLJaccard is the baseline the paper says profile similarity is "far
// superior" to: overlap of raw visited-page sets.
func URLJaccard(a, b map[int64]bool) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if len(a) > len(b) {
		a, b = b, a
	}
	inter := 0
	for p := range a {
		if b[p] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// FromVectors is a convenience: build a profile straight from raw page
// vectors (already TF-IDF normalized).
func FromVectors(user int64, vecs []text.Vector, ids []int64, tax *themes.Taxonomy) Profile {
	docs := make([]themes.DocVec, len(vecs))
	for i := range vecs {
		docs[i] = themes.DocVec{ID: ids[i], Vec: vecs[i]}
	}
	return Build(user, docs, tax)
}
