// Package themes implements Memex's central mining contribution (Figure 4):
// discovering a topic taxonomy tailored to a specific community from the
// document-folder associations of its users.
//
// Users organise overlapping interests under idiosyncratic folder trees.
// The consolidation algorithm:
//
//  1. represents every user folder as the TF-IDF centroid of its documents;
//  2. COARSENS by agglomeratively merging folder centroids whose cosine
//     similarity exceeds MergeSim — "capture common factors in people's
//     interests when they can" — so ten users' /music folders become one
//     community theme;
//  3. REFINES by splitting any theme whose document population is large
//     and internally dispersed — "refining topics where needed" — so a hot
//     theme the community is deeply invested in gains sub-themes;
//  4. labels each theme from contributors' folder names and the strongest
//     centroid terms.
//
// The result is a Taxonomy of themes with document assignments and
// per-user contribution maps; profiles over this taxonomy feed
// collaborative recommendation (package recommend, experiment E7), and the
// community-fit comparison against a fixed universal taxonomy is
// experiment E4.
package themes

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"memex/internal/cluster"
	"memex/internal/text"
)

// DocVec is one document with its (unit-normalized, typically TF-IDF) vector.
type DocVec struct {
	ID  int64
	Vec text.Vector
}

// UserFolder is one user's folder with the documents it holds.
type UserFolder struct {
	User int64
	Path string
	Docs []DocVec
}

// Options tunes discovery. Zero values take the documented defaults.
type Options struct {
	// MergeSim is the cosine threshold above which folders coalesce into a
	// theme (default 0.5; DESIGN.md §4).
	MergeSim float64
	// SplitDispersion triggers refinement when a theme's dispersion
	// (1 − mean member-to-centroid cosine) exceeds it (default 0.3: a tight
	// single-topic theme sits near 0.1; an orthogonal two-topic mixture
	// near 0.4).
	SplitDispersion float64
	// MinSplitDocs is the minimum population for refinement (default 40).
	MinSplitDocs int
	// Seed drives the split initialisation.
	Seed int64
}

const (
	// maxDepth bounds recursive refinement: two levels of children.
	maxDepth = 2
	// signatureTerms is the digest length per theme.
	signatureTerms = 8
)

func (o *Options) defaults() {
	if o.MergeSim == 0 {
		o.MergeSim = 0.5
	}
	if o.SplitDispersion == 0 {
		o.SplitDispersion = 0.3
	}
	if o.MinSplitDocs == 0 {
		o.MinSplitDocs = 40
	}
}

// Theme is one node of the community taxonomy.
type Theme struct {
	ID       int
	Parent   int // -1 for roots
	Children []int
	Label    string
	// Signature holds the strongest centroid terms.
	Signature []string
	Centroid  text.Vector
	// Docs are the documents assigned to this theme (for inner themes,
	// docs not claimed by any child).
	Docs []int64
	// Contributors maps user id → the folder paths merged into this theme.
	Contributors map[int64][]string
}

// Size returns the number of docs in the theme subtree.
func (t *Taxonomy) Size(id int) int {
	th := &t.Themes[id]
	n := len(th.Docs)
	for _, c := range th.Children {
		n += t.Size(c)
	}
	return n
}

// Taxonomy is the discovered community topic structure. It is finished
// when Discover returns (or a test has filled in a literal): the scoring
// table below is built from Themes on first use and never again, so a
// Taxonomy must not be copied or have its themes changed after it has
// scored a document.
type Taxonomy struct {
	Themes []Theme
	Roots  []int
	// DocTheme maps document id → owning theme id.
	DocTheme map[int64]int

	// The leaf themes' ids and their centroids prepared for term-at-a-time
	// scoring: part of the model, living and dying with it.
	scoring   sync.Once
	leaves    []int
	centroids *text.Matrix
}

// LeafCosines scores v against every leaf theme in one pass over v's
// terms: sims[i] is bit-for-bit text.Cosine(v, Themes[leaves[i]].Centroid),
// leaves in increasing theme id. sims uses buf's storage when it is large
// enough; leaves is shared and read-only.
func (tax *Taxonomy) LeafCosines(v text.Vector, buf []float64) (leaves []int, sims []float64) {
	tax.scoring.Do(func() {
		tax.leaves = tax.Leaves()
		rows := make([]text.Vector, len(tax.leaves))
		for i, id := range tax.leaves {
			rows[i] = tax.Themes[id].Centroid
		}
		tax.centroids = text.NewMatrix(rows)
	})
	return tax.leaves, tax.centroids.Cosines(v, buf)
}

// Discover runs the consolidation over all users' folders.
func Discover(userFolders []UserFolder, dict *text.Dict, opts Options) *Taxonomy {
	opts.defaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	tax := &Taxonomy{DocTheme: map[int64]int{}}

	// 1. Folder centroids.
	type folderInfo struct {
		uf       UserFolder
		centroid text.Vector
	}
	infos := make([]folderInfo, 0, len(userFolders))
	items := make([]cluster.Item, 0, len(userFolders))
	for _, uf := range userFolders {
		if len(uf.Docs) == 0 {
			continue
		}
		vecs := make([]text.Vector, len(uf.Docs))
		for i, d := range uf.Docs {
			vecs[i] = d.Vec
		}
		cen := text.Centroid(vecs).Normalize()
		items = append(items, cluster.Item{ID: int64(len(infos)), Vec: cen})
		infos = append(infos, folderInfo{uf: uf, centroid: cen})
	}
	if len(infos) == 0 {
		return tax
	}

	// 2. Coarsen: merge folder centroids above MergeSim.
	merged := cluster.HAC(items, 1, opts.MergeSim)

	for _, cl := range merged {
		id := len(tax.Themes)
		th := Theme{
			ID:           id,
			Parent:       -1,
			Contributors: map[int64][]string{},
		}
		var docs []DocVec
		nameCount := map[string]int{}
		for _, it := range cl.Items {
			info := infos[it.ID]
			th.Contributors[info.uf.User] = append(th.Contributors[info.uf.User], info.uf.Path)
			docs = append(docs, info.uf.Docs...)
			nameCount[baseName(info.uf.Path)]++
		}
		th.Label = majorityName(nameCount)
		vecs := make([]text.Vector, len(docs))
		for i, d := range docs {
			vecs[i] = d.Vec
		}
		th.Centroid = text.Centroid(vecs).Normalize()
		th.Signature = topTerms(dict, th.Centroid, signatureTerms)
		for _, d := range docs {
			th.Docs = append(th.Docs, d.ID)
			tax.DocTheme[d.ID] = id
		}
		tax.Themes = append(tax.Themes, th)
		tax.Roots = append(tax.Roots, id)

		// 3. Refine recursively.
		tax.refine(id, docs, dict, opts, rng, 1)
	}
	sort.Slice(tax.Roots, func(i, j int) bool {
		return tax.Size(tax.Roots[i]) > tax.Size(tax.Roots[j])
	})
	return tax
}

// refine splits theme id when its population is large and dispersed,
// attaching children and moving documents down.
func (tax *Taxonomy) refine(id int, docs []DocVec, dict *text.Dict, opts Options, rng *rand.Rand, depth int) {
	if depth > maxDepth || len(docs) < opts.MinSplitDocs {
		return
	}
	items := make([]cluster.Item, len(docs))
	byID := make(map[int64]DocVec, len(docs))
	for i, d := range docs {
		items[i] = cluster.Item{ID: d.ID, Vec: d.Vec}
		byID[d.ID] = d
	}
	parent := &tax.Themes[id]
	probe := &cluster.Cluster{Items: items, Centroid: parent.Centroid}
	if probe.Dispersion() <= opts.SplitDispersion {
		return
	}
	parts := cluster.KMeans2(items, rng, 12)
	if parts == nil {
		return
	}
	// Reject degenerate splits (one side tiny).
	minSide := len(docs) / 10
	if minSide < 3 {
		minSide = 3
	}
	if parts[0].Size() < minSide || parts[1].Size() < minSide {
		return
	}
	parent.Docs = nil // children own the docs now
	for _, part := range parts {
		cid := len(tax.Themes)
		child := Theme{
			ID:           cid,
			Parent:       id,
			Contributors: map[int64][]string{},
			Centroid:     part.Centroid.Normalize(),
		}
		child.Signature = topTerms(dict, child.Centroid, signatureTerms)
		var childDocs []DocVec
		for _, it := range part.Items {
			child.Docs = append(child.Docs, it.ID)
			tax.DocTheme[it.ID] = cid
			childDocs = append(childDocs, byID[it.ID])
		}
		if len(child.Signature) > 0 {
			child.Label = tax.Themes[id].Label + "/" + child.Signature[0]
		} else {
			child.Label = fmt.Sprintf("%s/%d", tax.Themes[id].Label, cid)
		}
		tax.Themes = append(tax.Themes, child)
		tax.Themes[id].Children = append(tax.Themes[id].Children, cid)
		tax.refine(cid, childDocs, dict, opts, rng, depth+1)
	}
}

// Assign returns the best theme for a new document vector: the theme
// (leaf-first) whose centroid is most similar. ok=false for an empty
// taxonomy.
func (tax *Taxonomy) Assign(v text.Vector) (int, bool) {
	leaves, sims := tax.LeafCosines(v, nil)
	best := nearest(sims)
	if best < 0 {
		return 0, false
	}
	return leaves[best], true
}

// nearest returns the index of the largest score, the first among equals,
// or -1 when there are no scores.
func nearest(sims []float64) int {
	best, bestSim := -1, -1.0
	for i, s := range sims {
		if s > bestSim {
			best, bestSim = i, s
		}
	}
	return best
}

// Fit measures how well the taxonomy describes a document set: the mean
// cosine between each document and its assigned theme centroid (higher is
// better). Used by experiment E4 against the universal-taxonomy baseline.
func (tax *Taxonomy) Fit(docs []DocVec) float64 {
	if len(docs) == 0 {
		return 0
	}
	var sum float64
	var sims []float64
	for _, d := range docs {
		_, sims = tax.LeafCosines(d.Vec, sims)
		if best := nearest(sims); best >= 0 {
			sum += sims[best]
		}
	}
	return sum / float64(len(docs))
}

// Leaves returns ids of leaf themes.
func (tax *Taxonomy) Leaves() []int {
	var out []int
	for i := range tax.Themes {
		if len(tax.Themes[i].Children) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// Stats summarises the taxonomy for reporting.
type Stats struct {
	Themes   int
	Roots    int
	Leaves   int
	MaxDepth int
	Refined  int // themes that gained children
	MergedIn int // folders consolidated
}

// Stats computes summary statistics.
func (tax *Taxonomy) Stats() Stats {
	st := Stats{Themes: len(tax.Themes), Roots: len(tax.Roots)}
	for i := range tax.Themes {
		if len(tax.Themes[i].Children) == 0 {
			st.Leaves++
		} else {
			st.Refined++
		}
		for uid := range tax.Themes[i].Contributors {
			st.MergedIn += len(tax.Themes[i].Contributors[uid])
		}
	}
	var depth func(id, d int) int
	depth = func(id, d int) int {
		max := d
		for _, c := range tax.Themes[id].Children {
			if dd := depth(c, d+1); dd > max {
				max = dd
			}
		}
		return max
	}
	for _, r := range tax.Roots {
		if d := depth(r, 1); d > st.MaxDepth {
			st.MaxDepth = d
		}
	}
	return st
}

func baseName(path string) string {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	if len(parts) == 0 {
		return path
	}
	name := parts[len(parts)-1]
	name = strings.TrimPrefix(name, "my-")
	return name
}

func majorityName(counts map[string]int) string {
	best, bestN := "", -1
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if counts[n] > bestN {
			best, bestN = n, counts[n]
		}
	}
	return best
}

func topTerms(dict *text.Dict, v text.Vector, k int) []string {
	ids, _ := v.Top(k)
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		if t := dict.Term(id); t != "" {
			out = append(out, t)
		}
	}
	return out
}
