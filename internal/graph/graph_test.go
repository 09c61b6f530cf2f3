package graph

import (
	"reflect"
	"testing"
)

func TestAddEdgeBasics(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(1, 2) // duplicate ignored
	g.AddEdge(2, 3)
	g.AddEdge(5, 5) // self-loop dropped
	if g.EdgeCount() != 2 {
		t.Fatalf("EdgeCount = %d", g.EdgeCount())
	}
	if g.NodeCount() != 3 {
		t.Fatalf("NodeCount = %d", g.NodeCount())
	}
	if len(g.Out(2)) != 1 || len(g.In(1)) != 0 {
		t.Fatal("edge direction wrong")
	}
	if out := g.Out(1); len(out) != 1 || out[0] != 2 {
		t.Fatalf("Out(1) = %v", out)
	}
	if in := g.In(3); len(in) != 1 || in[0] != 2 {
		t.Fatalf("In(3) = %v", in)
	}
}

func TestIsolatedNode(t *testing.T) {
	g := New()
	g.AddNode(42)
	if g.NodeCount() != 1 || g.EdgeCount() != 0 {
		t.Fatal("isolated node not stored")
	}
	if !g.Has(42) || len(g.Out(42))+len(g.In(42)) != 0 {
		t.Fatal("isolated node has neighbours")
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

// TestUnionOut: one call reports exactly what the union changed — the fresh
// targets in first-seen order, each one's in-list and the source's out-list
// afterwards — and leaves the graph as ApplyOut would.
func TestUnionOut(t *testing.T) {
	g := New()
	g.AddEdge(1, 9)
	g.AddEdge(2, 9)
	g.AddEdge(2, 9) // duplicate
	g.AddEdge(3, 4)

	// 3→4 is known, 3→3 is a self-loop, 7 repeats; 9 already has in-links
	// (two of them, the duplicate counted once), 7 and 5 have none.
	fresh, ins, outs := g.UnionOut(3, []int64{4, 9, 3, 7, 7, 5})
	if want := []int64{9, 7, 5}; !reflect.DeepEqual(fresh, want) {
		t.Fatalf("fresh = %v, want %v", fresh, want)
	}
	if want := [][]int64{{1, 2, 3}, {3}, {3}}; !reflect.DeepEqual(ins, want) {
		t.Fatalf("ins = %v, want %v", ins, want)
	}
	if want := []int64{4, 9, 7, 5}; !reflect.DeepEqual(outs, want) {
		t.Fatalf("outs = %v, want %v", outs, want)
	}
	if got, want := g.In(9), []int64{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("In(9) = %v, want %v", got, want)
	}
	outs[0], ins[0][0] = -1, -1
	if got := g.Out(3); got[0] != 4 {
		t.Fatal("UnionOut returned the graph's own out-list, not a copy")
	}
	if got := g.In(9); got[0] != 1 {
		t.Fatal("UnionOut returned the graph's own in-list, not a copy")
	}

	// Nothing fresh: nothing reported but the standing out-list, no node made.
	fresh, ins, outs = g.UnionOut(3, []int64{9, 3})
	if len(fresh) != 0 || len(ins) != 0 || len(outs) != 4 {
		t.Fatalf("repeat union = %v, %v, %v; want nothing fresh and the 4 standing out-links", fresh, ins, outs)
	}
	if fresh, _, outs := g.UnionOut(42, []int64{42}); len(fresh) != 0 || len(outs) != 0 || g.Has(42) {
		t.Fatalf("a pure self-loop changed the graph: fresh %v, outs %v, Has(42) = %v", fresh, outs, g.Has(42))
	}
	if g.EdgeCount() != 6 {
		t.Fatalf("EdgeCount = %d, want 6", g.EdgeCount())
	}
}
