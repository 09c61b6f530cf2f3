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
// Graph here (a fixture for tests and the benchmark's cost ladder), or a
// snapshot-pinned view decoding versioned adjacency records
// (core.DerivedView: one lnk/ record per page's out-links, one rin/ record
// per page's in-links, the engine's only home for the link graph) — can
// feed neighbourhood expansion (ExpandFrom) and HITS (HITSOver). That is
// what lets the engine run a whole trail-replay or discovery pass against
// one frozen epoch of the link graph while ingest keeps publishing edges.
// The primitives read each page's adjacency a bounded number of times
// (HITS materialises the induced subgraph once), so a source that decodes
// records on demand is never re-decoded per iteration — and the Graph's
// lock is never held across an iteration loop.
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
	// edge set for O(1) duplicate detection.
	edges map[[2]int64]bool
}

// New returns an empty graph.
//
//memexvet:ignore reader read only by bench/layers.go, the benchmark ladder, until ROADMAP item 21(b) moves it off graph.Graph
func New() *Graph {
	return &Graph{
		out:   make(map[int64][]int64),
		in:    make(map[int64][]int64),
		edges: make(map[[2]int64]bool),
	}
}

func (g *Graph) ensure(id int64) {
	if _, ok := g.out[id]; !ok {
		g.out[id] = nil
		g.in[id] = nil
	}
}

// AddEdge inserts the directed edge from→to (idempotent; self-loops are
// dropped entirely — unlike ApplyOut, a pure self-loop creates no node).
//
//memexvet:ignore reader read only by bench/layers.go, the benchmark ladder, until ROADMAP item 21(b) moves it off graph.Graph
func (g *Graph) AddEdge(from, to int64) {
	if from == to {
		return
	}
	g.ApplyOut(from, []int64{to})
}

// ApplyOut merges one page's out-adjacency into the graph: every edge
// from→each target but a self-loop is added idempotently, and the node
// exists afterwards even when outs is empty.
func (g *Graph) ApplyOut(from int64, outs []int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ensure(from)
	for _, to := range outs {
		key := [2]int64{from, to}
		if from == to || g.edges[key] {
			continue
		}
		g.edges[key] = true
		g.ensure(to)
		g.out[from] = append(g.out[from], to)
		g.in[to] = append(g.in[to], from)
	}
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
// The induced subgraph is materialised once up front (one Out/In read per
// node), so the power iterations touch the source — which may be decoding
// versioned records — exactly |nodes| times regardless of the iteration
// count. It is held dense: each node gets an index in the order nodes lists
// it (a repeat counts once), each direction is compressed sparse rows of
// neighbour indices in the order the source lists them, and the scores are
// slices. Every sum runs in those orders and normalisation in node order,
// so two calls on one subgraph agree bit for bit, and a near-tie ranks the
// same way each time.
func HITSOver(src AdjacencySource, nodes []int64, iterations int) (hubs, auths Scores) {
	if iterations <= 0 {
		iterations = 20
	}
	idx := make(map[int64]int32, len(nodes))
	order := make([]int64, 0, len(nodes))
	for _, n := range nodes {
		if _, ok := idx[n]; !ok {
			idx[n] = int32(len(order))
			order = append(order, n)
		}
	}
	in, out := induced(order, idx, src.In), induced(order, idx, src.Out)
	hub, auth := make([]float64, len(order)), make([]float64, len(order))
	for i := range hub {
		hub[i] = 1
	}
	for it := 0; it < iterations; it++ {
		in.sum(auth, hub) // auth = sum of hub scores of in-links
		normalize(auth)
		out.sum(hub, auth)
		normalize(hub)
	}
	hubs, auths = make(Scores, len(order)), make(Scores, len(order))
	for i, n := range order {
		hubs[n], auths[n] = hub[i], auth[i]
	}
	return hubs, auths
}

// csr is one direction of an induced subgraph as compressed sparse rows:
// row i's neighbours are adj[start[i]:start[i+1]], as dense indices.
type csr struct{ start, adj []int32 }

// induced reads list once per node of order and keeps the neighbours that
// idx numbers, in list's order.
func induced(order []int64, idx map[int64]int32, list func(int64) []int64) csr {
	c := csr{start: make([]int32, 1, len(order)+1)}
	for _, n := range order {
		for _, v := range list(n) {
			if j, ok := idx[v]; ok {
				c.adj = append(c.adj, j)
			}
		}
		c.start = append(c.start, int32(len(c.adj)))
	}
	return c
}

// sum sets dst[i] to the sum of src over row i's neighbours, in row order.
func (c csr) sum(dst, src []float64) {
	for i := range dst {
		var s float64
		for _, j := range c.adj[c.start[i]:c.start[i+1]] {
			s += src[j]
		}
		dst[i] = s
	}
}

// normalize scales s to unit L2 norm, summing in index order; all zeros
// stay zeros.
func normalize(s []float64) {
	var sum float64
	for _, v := range s {
		sum += v * v
	}
	if sum == 0 {
		return
	}
	norm := math.Sqrt(sum)
	for i := range s {
		s[i] /= norm
	}
}
