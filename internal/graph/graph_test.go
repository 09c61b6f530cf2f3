package graph

import (
	"slices"
	"testing"
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

func BenchmarkHITS(b *testing.B) {
	g := New()
	nodes := make([]int64, 500)
	for i := int64(0); i < 500; i++ {
		nodes[i] = i
		for j := 0; j < 4; j++ {
			g.AddEdge(i, (i*13+int64(j)*37)%500)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HITSOver(g, nodes, 15)
	}
}
