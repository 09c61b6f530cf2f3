package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"memex/internal/text"
)

// makeTopicItems builds items drawn from nTopics well-separated term
// distributions, returning items and ground-truth labels.
func makeTopicItems(rng *rand.Rand, d *text.Dict, nTopics, perTopic int) ([]Item, map[int64]string) {
	labels := map[int64]string{}
	var items []Item
	id := int64(0)
	for t := 0; t < nTopics; t++ {
		topic := fmt.Sprintf("topic%d", t)
		vocab := make([]string, 12)
		for i := range vocab {
			vocab[i] = fmt.Sprintf("t%dword%d", t, i)
		}
		for p := 0; p < perTopic; p++ {
			tf := map[string]int{}
			for w := 0; w < 15; w++ {
				tf[vocab[rng.Intn(len(vocab))]]++
			}
			// sprinkle shared noise
			tf["common"] = 1
			v := text.VectorFromCounts(d, tf).Normalize()
			items = append(items, Item{ID: id, Vec: v})
			labels[id] = topic
			id++
		}
	}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return items, labels
}

func TestHACRecoversTopics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := text.NewDict()
	items, labels := makeTopicItems(rng, d, 4, 15)
	clusters := HAC(items, 4, 0)
	if len(clusters) != 4 {
		t.Fatalf("got %d clusters, want 4", len(clusters))
	}
	if p := Purity(clusters, labels); p < 0.95 {
		t.Fatalf("purity = %v, want >= 0.95", p)
	}
}

func TestHACStopsAtMinSim(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := text.NewDict()
	items, _ := makeTopicItems(rng, d, 3, 10)
	// A very high threshold should stop merging early, leaving > 3 clusters.
	clusters := HAC(items, 1, 0.99)
	if len(clusters) <= 3 {
		t.Fatalf("minSim did not stop merging: %d clusters", len(clusters))
	}
	// No threshold merges everything into 1.
	clusters = HAC(items, 1, 0)
	if len(clusters) != 1 {
		t.Fatalf("full merge got %d clusters", len(clusters))
	}
}

func TestHACEdgeCases(t *testing.T) {
	if got := HAC(nil, 3, 0); got != nil {
		t.Fatal("HAC(nil) != nil")
	}
	d := text.NewDict()
	one := []Item{{ID: 1, Vec: text.VectorFromCounts(d, map[string]int{"x": 1})}}
	cl := HAC(one, 5, 0)
	if len(cl) != 1 || cl[0].Size() != 1 {
		t.Fatalf("single item: %v", cl)
	}
	// k < 1 coerced to 1.
	two := append(one, Item{ID: 2, Vec: text.VectorFromCounts(d, map[string]int{"x": 1})})
	cl = HAC(two, 0, 0)
	if len(cl) != 1 {
		t.Fatalf("k=0: %d clusters", len(cl))
	}
}

func TestDispersion(t *testing.T) {
	d := text.NewDict()
	same := []Item{
		{ID: 1, Vec: text.VectorFromCounts(d, map[string]int{"x": 1}).Normalize()},
		{ID: 2, Vec: text.VectorFromCounts(d, map[string]int{"x": 2}).Normalize()},
	}
	tight := HAC(same, 1, 0)[0]
	if disp := tight.Dispersion(); disp > 0.01 {
		t.Fatalf("identical-direction cluster dispersion = %v", disp)
	}
	mixed := []Item{
		{ID: 1, Vec: text.VectorFromCounts(d, map[string]int{"aaa": 1})},
		{ID: 2, Vec: text.VectorFromCounts(d, map[string]int{"bbb": 1})},
	}
	loose := HAC(mixed, 1, 0)[0]
	if loose.Dispersion() <= tight.Dispersion() {
		t.Fatal("orthogonal cluster not more dispersed")
	}
}

func TestBuckshotQualityAndSpeed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := text.NewDict()
	items, labels := makeTopicItems(rng, d, 5, 60) // 300 items
	clusters := Buckshot(items, 5, rng)
	if len(clusters) != 5 {
		t.Fatalf("buckshot got %d clusters", len(clusters))
	}
	total := 0
	for _, c := range clusters {
		total += c.Size()
	}
	if total != len(items) {
		t.Fatalf("buckshot assigned %d of %d items", total, len(items))
	}
	if p := Purity(clusters, labels); p < 0.85 {
		t.Fatalf("buckshot purity = %v", p)
	}
}

func TestBuckshotSmallInputFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := text.NewDict()
	items, _ := makeTopicItems(rng, d, 2, 2)
	clusters := Buckshot(items, 10, rng)
	if len(clusters) == 0 {
		t.Fatal("buckshot with k >= n returned nothing")
	}
}

func TestKMeans2(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := text.NewDict()
	items, labels := makeTopicItems(rng, d, 2, 20)
	parts := KMeans2(items, rng, 10)
	if parts == nil || len(parts) != 2 {
		t.Fatalf("KMeans2 = %v", parts)
	}
	if p := Purity(parts, labels); p < 0.9 {
		t.Fatalf("2-means purity = %v", p)
	}
	if KMeans2(items[:1], rng, 5) != nil {
		t.Fatal("KMeans2 on 1 item should return nil")
	}
}

func TestPurityEdgeCases(t *testing.T) {
	if Purity(nil, nil) != 0 {
		t.Fatal("Purity(nil) != 0")
	}
}

func BenchmarkHAC200(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	d := text.NewDict()
	items, _ := makeTopicItems(rng, d, 5, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HAC(items, 5, 0)
	}
}

func BenchmarkBuckshot1000(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	d := text.NewDict()
	items, _ := makeTopicItems(rng, d, 10, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Buckshot(items, 10, rng)
	}
}
