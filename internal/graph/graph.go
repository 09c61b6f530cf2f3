// Package graph stores the hypertext graph Memex accumulates from surf
// trails: pages (nodes) and links (directed edges), with in/out adjacency,
// neighbourhood expansion, and the link-analysis primitive the mining
// demons use — HITS hubs/authorities over a focused subgraph (resource
// discovery, popularity near the community trail graph).
//
// # Adjacency sources and pinned views
//
// The analysis primitives are written against AdjacencySource, not the
// concrete Graph: any per-page adjacency provider — the mutable in-memory
// Graph here (the producer's authority over which edges are new, and the
// bench's fixture), or a snapshot-pinned view decoding versioned adjacency
// records (core.DerivedView: one lnk/ record per page's out-links, one
// rin/ record per page's in-links) — can feed neighbourhood expansion
// (ExpandFrom) and HITS (HITSOver). That is what lets the engine run a
// whole trail-replay or discovery pass against one frozen epoch of the
// link graph while ingest keeps publishing edges. The primitives read each
// page's adjacency a bounded number of times (HITS materialises the
// induced subgraph once), so a source that decodes records on demand is
// never re-decoded per iteration — and the Graph's lock is never held
// across an iteration loop.
package graph

import (
	"math"
	"sort"
	"sync"
)

// AdjacencySource is per-page directed adjacency: the read interface the
// link-analysis primitives consume. Has reports whether the page is known
// to the graph at all (a page can be known yet have no links). Returned
// slices must not be mutated by callers; implementations may return
// shared memoized slices.
type AdjacencySource interface {
	Out(page int64) []int64
	In(page int64) []int64
	Has(page int64) bool
}

// Graph is a directed graph over int64 node ids. Safe for concurrent use.
type Graph struct {
	mu  sync.RWMutex
	out map[int64][]int64
	in  map[int64][]int64
	// edge set for O(1) duplicate detection, key = (from<<32)^to packed.
	edges map[[2]int64]bool
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		out:   make(map[int64][]int64),
		in:    make(map[int64][]int64),
		edges: make(map[[2]int64]bool),
	}
}

// AddNode ensures a node exists (isolated nodes are legal).
func (g *Graph) AddNode(id int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ensure(id)
}

func (g *Graph) ensure(id int64) {
	if _, ok := g.out[id]; !ok {
		g.out[id] = nil
		g.in[id] = nil
	}
}

// AddEdge inserts the directed edge from→to (idempotent; self-loops are
// dropped entirely — unlike ApplyOut, a pure self-loop creates no node).
func (g *Graph) AddEdge(from, to int64) {
	if from == to {
		return
	}
	g.ApplyOut(from, []int64{to})
}

// ApplyOut merges one page's out-adjacency delta into the graph: every
// edge from→each target is added idempotently and the node exists
// afterwards even when outs is empty. This is the incremental build step
// for graphs reconstructed from versioned adjacency records.
func (g *Graph) ApplyOut(from int64, outs []int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ensure(from)
	for _, to := range outs {
		g.addEdgeLocked(from, to)
	}
}

// UnionOut is ApplyOut for a producer that must publish what the merge
// changed, answered under the one lock acquisition that makes the change:
// fresh lists the targets that were not out-neighbours of from before
// (first-seen order; self-loops and repeats dropped), ins[i] is fresh[i]'s
// in-adjacency after the union and outs is from's out-adjacency after it
// (copies, insertion order). Unlike ApplyOut it creates no node when it
// adds no edge.
func (g *Graph) UnionOut(from int64, targets []int64) (fresh []int64, ins [][]int64, outs []int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, to := range targets {
		if g.addEdgeLocked(from, to) {
			fresh = append(fresh, to)
			ins = append(ins, append([]int64(nil), g.in[to]...))
		}
	}
	return fresh, ins, append([]int64(nil), g.out[from]...)
}

// addEdgeLocked adds from→to unless it is a self-loop or already there,
// and reports whether it did. Caller holds mu.
func (g *Graph) addEdgeLocked(from, to int64) bool {
	key := [2]int64{from, to}
	if from == to || g.edges[key] {
		return false
	}
	g.edges[key] = true
	g.ensure(from)
	g.ensure(to)
	g.out[from] = append(g.out[from], to)
	g.in[to] = append(g.in[to], from)
	return true
}

// Has reports whether the node is known to the graph.
func (g *Graph) Has(id int64) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, ok := g.out[id]
	return ok
}

// Out returns a copy of the out-neighbours of id.
func (g *Graph) Out(id int64) []int64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return append([]int64(nil), g.out[id]...)
}

// In returns a copy of the in-neighbours of id.
func (g *Graph) In(id int64) []int64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return append([]int64(nil), g.in[id]...)
}

// NodeCount and EdgeCount report graph size.
func (g *Graph) NodeCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.out)
}

func (g *Graph) EdgeCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.edges)
}

// ExpandFrom returns the radius-r undirected neighbourhood of the seed set
// (including the seeds), capped at maxNodes (0 = unlimited) — the "limited
// radius neighbourhood" expansion used for trail context graphs. Seeds
// unknown to the source are dropped, then the neighbourhood grows breadth-
// first (out-neighbours before in-neighbours, source order) until the
// radius or the node cap is reached. Against a pinned view the whole
// expansion reads one frozen epoch of the link graph.
func ExpandFrom(src AdjacencySource, seeds []int64, radius, maxNodes int) []int64 {
	seen := map[int64]bool{}
	frontier := make([]int64, 0, len(seeds))
	var out []int64
	for _, s := range seeds {
		if !src.Has(s) {
			continue
		}
		if !seen[s] {
			seen[s] = true
			frontier = append(frontier, s)
			out = append(out, s)
		}
	}
	for r := 0; r < radius; r++ {
		var next []int64
		for _, u := range frontier {
			for _, vs := range [][]int64{src.Out(u), src.In(u)} {
				for _, v := range vs {
					if seen[v] {
						continue
					}
					if maxNodes > 0 && len(out) >= maxNodes {
						return out
					}
					seen[v] = true
					next = append(next, v)
					out = append(out, v)
				}
			}
		}
		frontier = next
	}
	return out
}

// Scores holds a node-score assignment from a link analysis run.
type Scores map[int64]float64

// Top returns the k highest-scoring nodes, descending (ties by id).
func (s Scores) Top(k int) []int64 {
	ids := make([]int64, 0, len(s))
	for id := range s {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if s[ids[i]] != s[ids[j]] {
			return s[ids[i]] > s[ids[j]]
		}
		return ids[i] < ids[j]
	})
	if k < len(ids) {
		ids = ids[:k]
	}
	return ids
}

// HITSOver runs Kleinberg's algorithm on the subgraph induced by nodes for
// the given iterations, returning hub and authority scores (L2-normalized).
// The induced subgraph is materialised once up front (one Out/In read per node), so the power
// iterations touch the source — which may be decoding versioned records —
// exactly |nodes| times regardless of the iteration count.
func HITSOver(src AdjacencySource, nodes []int64, iterations int) (hubs, auths Scores) {
	if iterations <= 0 {
		iterations = 20
	}
	in := map[int64]bool{}
	for _, n := range nodes {
		in[n] = true
	}
	outAdj := make(map[int64][]int64, len(nodes))
	inAdj := make(map[int64][]int64, len(nodes))
	for _, n := range nodes {
		for _, v := range src.Out(n) {
			if in[v] {
				outAdj[n] = append(outAdj[n], v)
			}
		}
		for _, u := range src.In(n) {
			if in[u] {
				inAdj[n] = append(inAdj[n], u)
			}
		}
	}
	hubs = make(Scores, len(nodes))
	auths = make(Scores, len(nodes))
	for _, n := range nodes {
		hubs[n] = 1
		auths[n] = 1
	}
	for it := 0; it < iterations; it++ {
		// auth = sum of hub scores of in-links.
		for _, n := range nodes {
			var s float64
			for _, u := range inAdj[n] {
				s += hubs[u]
			}
			auths[n] = s
		}
		normalizeScores(auths)
		for _, n := range nodes {
			var s float64
			for _, v := range outAdj[n] {
				s += auths[v]
			}
			hubs[n] = s
		}
		normalizeScores(hubs)
	}
	return hubs, auths
}

func normalizeScores(s Scores) {
	var sum float64
	for _, v := range s {
		sum += v * v
	}
	if sum == 0 {
		return
	}
	norm := math.Sqrt(sum)
	for k := range s {
		s[k] /= norm
	}
}
