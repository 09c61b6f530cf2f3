package cluster

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"memex/internal/text"
)

// The reference* functions are HAC, Dispersion, KMeans2 and Buckshot's
// assignment as they were written before norms were hoisted and the
// all-pairs matrix was prepared: one text.Cosine per comparison. They are
// kept as the references the present versions must equal bit for bit.

func referenceHAC(items []Item, k int, minSim float64) []*Cluster {
	n := len(items)
	if n == 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	clusters := make([]*Cluster, n)
	active := make([]bool, n)
	for i, it := range items {
		clusters[i] = &Cluster{Items: []Item{it}, Centroid: it.Vec}
		active[i] = true
	}
	live := n
	pq := &pairHeap{}
	heap.Init(pq)
	ver := make([]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s := text.Cosine(clusters[i].Centroid, clusters[j].Centroid)
			heap.Push(pq, pair{i, j, ver[i], ver[j], s})
		}
	}
	for live > k && pq.Len() > 0 {
		p := heap.Pop(pq).(pair)
		if !active[p.i] || !active[p.j] || ver[p.i] != p.vi || ver[p.j] != p.vj {
			continue
		}
		if minSim > 0 && p.sim < minSim {
			break
		}
		ci, cj := clusters[p.i], clusters[p.j]
		merged := &Cluster{
			Items:    append(append([]Item(nil), ci.Items...), cj.Items...),
			Children: [2]*Cluster{ci, cj},
			Sim:      p.sim,
		}
		merged.Centroid = weightedCentroid(ci, cj)
		clusters[p.i] = merged
		active[p.j] = false
		ver[p.i]++
		live--
		for x := 0; x < n; x++ {
			if x == p.i || !active[x] {
				continue
			}
			s := text.Cosine(clusters[p.i].Centroid, clusters[x].Centroid)
			a, b := p.i, x
			if a > b {
				a, b = b, a
			}
			heap.Push(pq, pair{a, b, ver[a], ver[b], s})
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

func referenceDispersion(c *Cluster) float64 {
	if len(c.Items) == 0 {
		return 0
	}
	var s float64
	for _, it := range c.Items {
		s += text.Cosine(it.Vec, c.Centroid)
	}
	return 1 - s/float64(len(c.Items))
}

func referenceKMeans2(items []Item, rng *rand.Rand, iterations int) []*Cluster {
	if len(items) < 2 {
		return nil
	}
	a := rng.Intn(len(items))
	b, worst := -1, math.Inf(1)
	for i, it := range items {
		if i == a {
			continue
		}
		if s := text.Cosine(it.Vec, items[a].Vec); s < worst {
			worst, b = s, i
		}
	}
	cents := []text.Vector{items[a].Vec, items[b].Vec}
	assign := make([]int, len(items))
	for it := 0; it < iterations; it++ {
		changed := false
		for i, item := range items {
			best := 0
			if text.Cosine(item.Vec, cents[1]) > text.Cosine(item.Vec, cents[0]) {
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
		out[assign[i]].Items = append(out[assign[i]].Items, items[i])
	}
	if out[0].Size() == 0 || out[1].Size() == 0 {
		return nil
	}
	return out
}

// referenceNearest is Buckshot's assignment step: the seed most similar to
// the item, the first among equals.
func referenceNearest(it Item, seeds []*Cluster) int {
	best, bestSim := 0, -1.0
	for i, c := range seeds {
		if s := text.Cosine(it.Vec, c.Centroid); s > bestSim {
			best, bestSim = i, s
		}
	}
	return best
}

// overlappingItems draws items of nTopics topics whose vocabularies share a
// third of their words, so that similarities are neither 0 nor 1 and merge
// order is decided by their low bits. Every tenth item is an exact copy of
// another (tied similarities), and one has no terms at all.
func overlappingItems(rng *rand.Rand, d *text.Dict, nTopics, perTopic int) []Item {
	var items []Item
	for t := 0; t < nTopics; t++ {
		for p := 0; p < perTopic; p++ {
			tf := map[string]int{}
			for w := 0; w < 14; w++ {
				tf[fmt.Sprintf("t%dword%d", t, rng.Intn(12))]++
			}
			for w := 0; w < 7; w++ {
				tf[fmt.Sprintf("shared%d", rng.Intn(10))]++
			}
			items = append(items, Item{Vec: text.VectorFromCounts(d, tf).Normalize()})
		}
	}
	for i := 9; i < len(items); i += 10 {
		items[i].Vec = items[i-5].Vec
	}
	items = append(items, Item{})
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	for i := range items {
		items[i].ID = int64(i)
	}
	return items
}

func sameVector(a, b text.Vector) bool {
	if len(a.IDs) != len(b.IDs) {
		return false
	}
	for i := range a.IDs {
		if a.IDs[i] != b.IDs[i] || math.Float64bits(a.Weights[i]) != math.Float64bits(b.Weights[i]) {
			return false
		}
	}
	return true
}

// sameClusters compares two clusterings all the way down their
// dendrograms: members in order, centroid bits, merge similarity bits.
func sameClusters(t *testing.T, what string, got, want []*Cluster) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d clusters, reference %d", what, len(got), len(want))
	}
	var same func(g, w *Cluster) bool
	same = func(g, w *Cluster) bool {
		if (g == nil) != (w == nil) {
			return false
		}
		if g == nil {
			return true
		}
		if len(g.Items) != len(w.Items) || math.Float64bits(g.Sim) != math.Float64bits(w.Sim) || !sameVector(g.Centroid, w.Centroid) {
			return false
		}
		for i := range g.Items {
			if g.Items[i].ID != w.Items[i].ID {
				return false
			}
		}
		return same(g.Children[0], w.Children[0]) && same(g.Children[1], w.Children[1])
	}
	for i := range got {
		if !same(got[i], want[i]) {
			t.Fatalf("%s: cluster %d is %v, reference %v", what, i, got[i], want[i])
		}
	}
}

func TestHACMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(40 + seed))
		items := overlappingItems(rng, text.NewDict(), 5, 12)
		for _, c := range []struct {
			k      int
			minSim float64
		}{{1, 0}, {4, 0}, {1, 0.5}, {1, 0.8}} {
			what := fmt.Sprintf("seed %d, HAC(k=%d, minSim=%v)", seed, c.k, c.minSim)
			sameClusters(t, what, HAC(items, c.k, c.minSim), referenceHAC(items, c.k, c.minSim))
		}
	}
}

func TestDispersionKMeans2AndBuckshotMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(50 + seed))
		items := overlappingItems(rng, text.NewDict(), 4, 15)

		got := KMeans2(items, rand.New(rand.NewSource(seed)), 12)
		want := referenceKMeans2(items, rand.New(rand.NewSource(seed)), 12)
		sameClusters(t, fmt.Sprintf("seed %d, KMeans2", seed), got, want)
		for i, c := range got {
			if g, w := c.Dispersion(), referenceDispersion(c); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d, side %d: Dispersion = %v, reference %v", seed, i, g, w)
			}
		}

		// Buckshot's seeds are lost once it recomputes the centroids, so
		// replay it: same rng, same sample, reference HAC, reference
		// assignment — then compare memberships and final centroids.
		const k = 4
		out := Buckshot(items, k, rand.New(rand.NewSource(seed)))
		perm := rand.New(rand.NewSource(seed)).Perm(len(items))
		sample := make([]Item, int(math.Sqrt(float64(k*len(items)))))
		for i := range sample {
			sample[i] = items[perm[i]]
		}
		seeds := referenceHAC(sample, k, 0)
		members := make([][]Item, len(seeds))
		for _, it := range items {
			n := referenceNearest(it, seeds)
			members[n] = append(members[n], it)
		}
		var ref []*Cluster
		for i, ms := range members {
			c := &Cluster{Items: ms, Centroid: seeds[i].Centroid}
			if len(ms) > 0 {
				vecs := make([]text.Vector, len(ms))
				for j, it := range ms {
					vecs[j] = it.Vec
				}
				c.Centroid = text.Centroid(vecs)
			}
			ref = append(ref, c)
		}
		sort.Slice(ref, func(i, j int) bool { return ref[i].Size() > ref[j].Size() })
		sameClusters(t, fmt.Sprintf("seed %d, Buckshot", seed), out, ref)
	}
}

// BenchmarkHAC is theme discovery's coarsening step at the benchmark
// world's shape: 172 folder centroids of about a thousand terms, each folder
// about one of 20 topics whose vocabularies overlap by a quarter, merged down
// to the 0.5 threshold.
func BenchmarkHAC(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const folders, topics, vocab, topicVocab = 172, 20, 20000, 1200
	items := make([]Item, folders)
	for i := range items {
		base := (i % topics) * (vocab - topicVocab) / topics
		w := map[int32]float64{}
		for n := 700 + rng.Intn(400); len(w) < n; {
			w[int32(base+rng.Intn(topicVocab))] = 1 - rng.Float64()
		}
		v := text.Vector{IDs: make([]int32, 0, len(w))}
		for id := range w {
			v.IDs = append(v.IDs, id)
		}
		sort.Slice(v.IDs, func(i, j int) bool { return v.IDs[i] < v.IDs[j] })
		for _, id := range v.IDs {
			v.Weights = append(v.Weights, w[id])
		}
		items[i] = Item{ID: int64(i), Vec: v.Normalize()}
	}
	if n := len(HAC(items, 1, 0.5)); n != topics {
		b.Fatalf("%d folders merged into %d themes, want one per topic (%d)", folders, n, topics)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HAC(items, 1, 0.5)
	}
}
