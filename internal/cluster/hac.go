// Package cluster implements the clustering machinery Memex uses to
// propose topic hierarchies over bookmarks: bottom-up group-average
// hierarchical agglomerative clustering (HAC) in the style of
// scatter/gather (Cutting, Karger, Pedersen 1993), plus the buckshot
// sampling trick that gives constant interaction time on large
// collections, and cluster digests (top terms per cluster).
//
// Similarities are cosines, scored term-at-a-time into tables indexed by
// term id, never by a merge-join per pair: HAC scores its initial
// all-pairs candidates, Buckshot assigns items to seeds, KMeans2 assigns
// items to its two centroids and Dispersion compares members with the
// centroid through a text.Matrix (one pass per item against all rows),
// and after each merge HAC spreads the new centroid over a dense table
// once and scores every live centroid against it. Each sum still runs in
// increasing term-id order, so the scores are the bits text.Cosine would
// give.
package cluster

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"memex/internal/text"
)

// Item is one object to cluster: an id and its (typically TF-IDF,
// unit-normalized) term vector.
type Item struct {
	ID  int64
	Vec text.Vector
}

// Cluster is a group of items with its centroid.
type Cluster struct {
	Items    []Item
	Centroid text.Vector
	// Children holds the two merged sub-clusters for dendrogram access
	// (nil for leaves).
	Children [2]*Cluster
	// Sim is the group-average similarity at which Children were merged.
	Sim float64
}

// Size returns the number of items in the cluster.
func (c *Cluster) Size() int { return len(c.Items) }

// Dispersion returns 1 - mean cosine of members to the centroid: 0 for a
// perfectly tight cluster. Used by theme discovery to decide refinement.
func (c *Cluster) Dispersion() float64 {
	if len(c.Items) == 0 {
		return 0
	}
	var s float64
	centroid := text.NewMatrix([]text.Vector{c.Centroid})
	var sims []float64
	for _, it := range c.Items {
		sims = centroid.Cosines(it.Vec, sims)
		s += sims[0]
	}
	return 1 - s/float64(len(c.Items))
}

// HAC performs group-average agglomerative clustering until k clusters
// remain (k >= 1) or the best merge similarity falls below minSim
// (minSim <= 0 disables the threshold). Returns the remaining clusters.
//
// Group-average similarity between clusters is computed on centroids
// scaled by cluster sizes, the standard O(n² log n) heap formulation.
func HAC(items []Item, k int, minSim float64) []*Cluster {
	n := len(items)
	if n == 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	clusters := make([]*Cluster, n)
	norms := make([]float64, n) // of clusters[i].Centroid, kept current across merges
	active := make([]bool, n)
	vecs := make([]text.Vector, n)
	for i, it := range items {
		clusters[i] = &Cluster{Items: []Item{it}, Centroid: it.Vec}
		norms[i] = it.Vec.Norm()
		active[i] = true
		vecs[i] = it.Vec
	}
	live := n

	// Candidate heap of pairwise similarities. Lazy deletion: a popped
	// candidate is valid only if both endpoints are still active and
	// unmerged since push.
	pq := &pairHeap{}
	heap.Init(pq)
	ver := make([]int, n) // bumped on merge
	// The initial all-pairs similarities: each item scored against all the
	// items at once, term-at-a-time, instead of n²/2 separate merges.
	all := text.NewMatrix(vecs)
	var sims []float64
	for i := 0; i < n; i++ {
		sims = all.Cosines(vecs[i], sims)
		for j := i + 1; j < n; j++ {
			heap.Push(pq, pair{i, j, ver[i], ver[j], sims[j]})
		}
	}
	// A merged centroid is spread over dense, a table indexed by term id,
	// for the one pass that scores it against every live centroid; the
	// pass leaves dense all zeros again. Every centroid holds only the
	// items' term ids.
	span := 0
	for _, v := range vecs {
		if len(v.IDs) > 0 {
			span = max(span, int(v.IDs[len(v.IDs)-1])+1)
		}
	}
	dense := make([]float64, span)

	for live > k && pq.Len() > 0 {
		p := heap.Pop(pq).(pair)
		if !active[p.i] || !active[p.j] || ver[p.i] != p.vi || ver[p.j] != p.vj {
			continue
		}
		if minSim > 0 && p.sim < minSim {
			break
		}
		// Merge j into i.
		ci, cj := clusters[p.i], clusters[p.j]
		merged := &Cluster{
			Items:    append(append([]Item(nil), ci.Items...), cj.Items...),
			Children: [2]*Cluster{ci, cj},
			Sim:      p.sim,
		}
		merged.Centroid = weightedCentroid(ci, cj)
		clusters[p.i] = merged
		norms[p.i] = merged.Centroid.Norm()
		active[p.j] = false
		ver[p.i]++
		live--
		for i, id := range merged.Centroid.IDs {
			dense[id] = merged.Centroid.Weights[i]
		}
		for x := 0; x < n; x++ {
			if x == p.i || !active[x] {
				continue
			}
			s := scatteredCosine(dense, clusters[x].Centroid, norms[p.i], norms[x])
			a, b := p.i, x
			if a > b {
				a, b = b, a
			}
			heap.Push(pq, pair{a, b, ver[a], ver[b], s})
		}
		for _, id := range merged.Centroid.IDs {
			dense[id] = 0
		}
	}
	var out []*Cluster
	for i := 0; i < n; i++ {
		if active[i] {
			out = append(out, clusters[i])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Size() > out[j].Size() })
	return out
}

// scatteredCosine is the cosine of a and b for a spread over dense
// (dense[id] is a's weight of term id, 0 for a term a lacks) with norms na
// and nb. It visits b's terms in increasing id order, the order
// text.Dot's merge visits the shared terms in, multiplies a's weight by
// b's as Dot does, and skips the terms a lacks, which add nothing to
// Dot's sum: the result is bit for bit text.Cosine(a, b).
func scatteredCosine(dense []float64, b text.Vector, na, nb float64) float64 {
	if na == 0 || nb == 0 {
		return 0
	}
	var s float64
	for i, id := range b.IDs {
		if w := dense[id]; w != 0 {
			s += float64(w * b.Weights[i])
		}
	}
	return s / (na * nb)
}

type pair struct {
	i, j   int
	vi, vj int
	sim    float64
}

type pairHeap []pair

func (h pairHeap) Len() int           { return len(h) }
func (h pairHeap) Less(i, j int) bool { return h[i].sim > h[j].sim }
func (h pairHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *pairHeap) Push(x any)        { *h = append(*h, x.(pair)) }
func (h *pairHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func weightedCentroid(a, b *Cluster) text.Vector {
	na, nb := float64(a.Size()), float64(b.Size())
	wa := text.Vector{IDs: a.Centroid.IDs, Weights: append([]float64(nil), a.Centroid.Weights...)}
	wb := text.Vector{IDs: b.Centroid.IDs, Weights: append([]float64(nil), b.Centroid.Weights...)}
	sum := text.Add(wa.Scale(na), wb.Scale(nb))
	return sum.Scale(1 / (na + nb))
}

// Buckshot clusters a large collection in near-linear time, as in
// scatter/gather: run HAC on a random sample of size sqrt(k·n) to get k
// seed centroids, then assign every item to its nearest seed.
//
//memexvet:ignore reader read by the root BenchmarkAblationBuckshot, the scatter/gather ablation of DESIGN.md §3
func Buckshot(items []Item, k int, rng *rand.Rand) []*Cluster {
	n := len(items)
	if n == 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k >= n {
		return HAC(items, k, 0)
	}
	sampleSize := int(math.Sqrt(float64(k * n)))
	if sampleSize < k {
		sampleSize = k
	}
	perm := rng.Perm(n)
	sample := make([]Item, sampleSize)
	for i := 0; i < sampleSize; i++ {
		sample[i] = items[perm[i]]
	}
	seeds := HAC(sample, k, 0)

	out := make([]*Cluster, len(seeds))
	cents := make([]text.Vector, len(seeds))
	for i, s := range seeds {
		out[i] = &Cluster{Centroid: s.Centroid}
		cents[i] = s.Centroid
	}
	seedMatrix := text.NewMatrix(cents)
	var sims []float64
	for _, it := range items {
		sims = seedMatrix.Cosines(it.Vec, sims)
		best := 0
		for i, s := range sims {
			if s > sims[best] {
				best = i
			}
		}
		out[best].Items = append(out[best].Items, it)
	}
	// Recompute centroids from final assignments.
	for _, c := range out {
		if len(c.Items) == 0 {
			continue
		}
		vecs := make([]text.Vector, len(c.Items))
		for i, it := range c.Items {
			vecs[i] = it.Vec
		}
		c.Centroid = text.Centroid(vecs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Size() > out[j].Size() })
	return out
}

// KMeans2 splits items into two clusters by cosine k-means (used by theme
// refinement). Deterministic given rng; returns nil if items < 2.
func KMeans2(items []Item, rng *rand.Rand, iterations int) []*Cluster {
	if len(items) < 2 {
		return nil
	}
	if iterations <= 0 {
		iterations = 10
	}
	// Seed with two far-apart items: a random one and its least similar.
	a := rng.Intn(len(items))
	first := text.NewMatrix([]text.Vector{items[a].Vec})
	var sims []float64
	b, worst := -1, math.Inf(1)
	for i, it := range items {
		if i == a {
			continue
		}
		if sims = first.Cosines(it.Vec, sims); sims[0] < worst {
			worst, b = sims[0], i
		}
	}
	cents := []text.Vector{items[a].Vec, items[b].Vec}
	assign := make([]int, len(items))
	for it := 0; it < iterations; it++ {
		changed := false
		both := text.NewMatrix(cents)
		for i, item := range items {
			sims = both.Cosines(item.Vec, sims)
			best := 0
			if sims[1] > sims[0] {
				best = 1
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		for c := 0; c < 2; c++ {
			var vs []text.Vector
			for i := range items {
				if assign[i] == c {
					vs = append(vs, items[i].Vec)
				}
			}
			if len(vs) > 0 {
				cents[c] = text.Centroid(vs)
			}
		}
		if !changed {
			break
		}
	}
	out := []*Cluster{{Centroid: cents[0]}, {Centroid: cents[1]}}
	for i := range items {
		c := out[assign[i]]
		c.Items = append(c.Items, items[i])
	}
	if out[0].Size() == 0 || out[1].Size() == 0 {
		return nil // degenerate split
	}
	return out
}

// Purity scores a clustering against ground-truth labels: the weighted
// fraction of each cluster belonging to its majority label. 1.0 = perfect.
//
//memexvet:ignore reader read by the root BenchmarkAblationBuckshot, the scatter/gather ablation of DESIGN.md §3
func Purity(clusters []*Cluster, labels map[int64]string) float64 {
	total, agree := 0, 0
	for _, c := range clusters {
		counts := map[string]int{}
		for _, it := range c.Items {
			counts[labels[it.ID]]++
			total++
		}
		best := 0
		for _, n := range counts {
			if n > best {
				best = n
			}
		}
		agree += best
	}
	if total == 0 {
		return 0
	}
	return float64(agree) / float64(total)
}

func (c *Cluster) String() string {
	return fmt.Sprintf("cluster{n=%d sim=%.3f}", c.Size(), c.Sim)
}
