package graph

import (
	"math"
	"slices"
	"sync"
	"testing"

	"memex/internal/webcorpus"
)

func TestAddEdgeBasics(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(1, 2) // duplicate ignored
	g.AddEdge(2, 3)
	g.AddEdge(5, 5) // self-loop dropped
	for _, c := range []struct {
		node    int64
		out, in []int64
	}{{1, []int64{2}, nil}, {2, []int64{3}, []int64{1}}, {3, nil, []int64{2}}} {
		if !g.Has(c.node) {
			t.Fatalf("node %d missing", c.node)
		}
		if got := g.Out(c.node); !slices.Equal(got, c.out) {
			t.Fatalf("Out(%d) = %v, want %v", c.node, got, c.out)
		}
		if got := g.In(c.node); !slices.Equal(got, c.in) {
			t.Fatalf("In(%d) = %v, want %v", c.node, got, c.in)
		}
	}
	if g.Has(5) {
		t.Fatal("a pure self-loop made a node")
	}
}

func TestIsolatedNode(t *testing.T) {
	g := New()
	g.ApplyOut(42, nil)
	if !g.Has(42) || len(g.Out(42))+len(g.In(42)) != 0 {
		t.Fatal("isolated node not stored, or stored with neighbours")
	}
}

func TestExpand(t *testing.T) {
	// Chain 1→2→3→4→5.
	g := New()
	for i := int64(1); i < 5; i++ {
		g.AddEdge(i, i+1)
	}
	r1 := ExpandFrom(g, []int64{3}, 1, 0)
	if len(r1) != 3 {
		t.Fatalf("radius-1 = %v", r1)
	}
	r2 := ExpandFrom(g, []int64{3}, 2, 0)
	if len(r2) != 5 {
		t.Fatalf("radius-2 = %v", r2)
	}
	capped := ExpandFrom(g, []int64{3}, 2, 4)
	if len(capped) != 4 {
		t.Fatalf("capped expand = %v", capped)
	}
	if got := ExpandFrom(g, []int64{99}, 1, 0); got != nil {
		t.Fatalf("expand from unknown seed = %v", got)
	}
}

func TestHITSRanksAuthority(t *testing.T) {
	// Many hubs point at node 100; node 200 gets one link.
	g := New()
	for h := int64(1); h <= 5; h++ {
		g.AddEdge(h, 100)
	}
	g.AddEdge(1, 200)
	nodes := []int64{1, 2, 3, 4, 5, 100, 200}
	hubs, auths := HITSOver(g, nodes, 20)
	if auths[100] <= auths[200] {
		t.Fatalf("auth(100)=%v <= auth(200)=%v", auths[100], auths[200])
	}
	// Node 1 links to both authorities: best hub.
	for h := int64(2); h <= 5; h++ {
		if hubs[1] < hubs[h] {
			t.Fatalf("hub(1)=%v < hub(%d)=%v", hubs[1], h, hubs[h])
		}
	}
	top := auths.Top(1)
	if len(top) != 1 || top[0] != 100 {
		t.Fatalf("Top = %v", top)
	}
}

func TestHITSRestrictedToSubgraph(t *testing.T) {
	g := New()
	for h := int64(1); h <= 5; h++ {
		g.AddEdge(h, 100)
	}
	// Outside the node set: a huge authority that must be ignored.
	for h := int64(50); h < 80; h++ {
		g.AddEdge(h, 999)
	}
	nodes := []int64{1, 2, 3, 4, 5, 100}
	_, auths := HITSOver(g, nodes, 10)
	if _, ok := auths[999]; ok {
		t.Fatal("HITS scored a node outside the subgraph")
	}
	if auths[100] == 0 {
		t.Fatal("in-subgraph authority got zero")
	}
}

func TestScoresTopOrdering(t *testing.T) {
	s := Scores{1: 0.5, 2: 0.9, 3: 0.5}
	top := s.Top(3)
	if top[0] != 2 || top[1] != 1 || top[2] != 3 {
		t.Fatalf("Top = %v (ties must break by id)", top)
	}
	if got := s.Top(2); len(got) != 2 {
		t.Fatalf("Top(2) = %v", got)
	}
}

// hitsReference is HITSOver as it was before the dense subgraph: maps of
// adjacency and scores, normalised in map order. Kept to check the dense
// version against.
func hitsReference(src AdjacencySource, nodes []int64, iterations int) (hubs, auths Scores) {
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
	normalize := func(s Scores) {
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
	for it := 0; it < iterations; it++ {
		for _, n := range nodes {
			var s float64
			for _, u := range inAdj[n] {
				s += hubs[u]
			}
			auths[n] = s
		}
		normalize(auths)
		for _, n := range nodes {
			var s float64
			for _, v := range outAdj[n] {
				s += auths[v]
			}
			hubs[n] = s
		}
		normalize(hubs)
	}
	return hubs, auths
}

var world struct {
	once  sync.Once
	g     *Graph
	nodes []int64
}

// worldNeighbourhood is the subgraph the benchmark world's first Trails
// ranks, rebuilt from the same corpus (seed 1, 800 pages a leaf topic):
// the out-links of every seventh page stand for the fetched pages' link
// records (≈5 500 pages, ≈33 k edges, as the engine holds), and 3 560 of
// those pages for the trail, expanded radius 1 under trails.Popular's cap
// of four per trail node plus 64 — ≈14 k nodes.
func worldNeighbourhood() (*Graph, []int64) {
	world.once.Do(func() {
		c := webcorpus.Generate(webcorpus.Config{Seed: 1, PagesPerLeaf: 800})
		g := New()
		var trail []int64
		for i := 0; i < len(c.Pages); i += 7 {
			p := c.Pages[i]
			g.ApplyOut(p.ID, p.Links)
			if len(trail) < 3560 {
				trail = append(trail, p.ID)
			}
		}
		world.g, world.nodes = g, ExpandFrom(g, trail, 1, 4*len(trail)+64)
	})
	return world.g, world.nodes
}

// TestHITSMatchesReference: the dense HITS gives the map version's scores
// to within 1e-12 and its ranking, on the benchmark world's neighbourhood,
// and two runs agree bit for bit.
func TestHITSMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the benchmark world's link graph")
	}
	g, nodes := worldNeighbourhood()
	hubs, auths := HITSOver(g, nodes, 20)
	refHubs, refAuths := hitsReference(g, nodes, 20)
	for _, c := range []struct {
		name     string
		got, ref Scores
	}{{"hub", hubs, refHubs}, {"authority", auths, refAuths}} {
		if len(c.got) != len(nodes) || len(c.ref) != len(nodes) {
			t.Fatalf("%s scores for %d and %d nodes, want %d", c.name, len(c.got), len(c.ref), len(nodes))
		}
		for n, want := range c.ref {
			if got := c.got[n]; math.Abs(got-want) > 1e-12*math.Abs(want) {
				t.Fatalf("%s score of %d: %v, reference %v", c.name, n, got, want)
			}
		}
		if got, want := c.got.Top(50), c.ref.Top(50); !slices.Equal(got, want) {
			t.Fatalf("%s Top(50) = %v, reference %v", c.name, got, want)
		}
	}
	againHubs, againAuths := HITSOver(g, nodes, 20)
	for n := range hubs {
		if math.Float64bits(hubs[n]) != math.Float64bits(againHubs[n]) || math.Float64bits(auths[n]) != math.Float64bits(againAuths[n]) {
			t.Fatalf("node %d scores differ between two runs: hub %v/%v, authority %v/%v", n, hubs[n], againHubs[n], auths[n], againAuths[n])
		}
	}
	t.Logf("%d nodes, authority top 3 %v", len(nodes), auths.Top(3))
}

// BenchmarkHITS ranks the benchmark world's neighbourhood (see
// worldNeighbourhood), as Trails does: 20 iterations.
func BenchmarkHITS(b *testing.B) {
	g, nodes := worldNeighbourhood()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HITSOver(g, nodes, 20)
	}
	b.ReportMetric(float64(len(nodes)), "nodes")
}
