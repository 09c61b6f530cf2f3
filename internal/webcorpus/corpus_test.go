package webcorpus

import (
	"strings"
	"testing"

	"memex/internal/text"
)

func small() Config {
	return Config{Seed: 42, TopTopics: 3, SubPerTopic: 2, PagesPerLeaf: 10}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(small())
	b := Generate(small())
	if len(a.Pages) != len(b.Pages) {
		t.Fatalf("page counts differ: %d vs %d", len(a.Pages), len(b.Pages))
	}
	for i := range a.Pages {
		if a.Pages[i].Text != b.Pages[i].Text || a.Pages[i].URL != b.Pages[i].URL {
			t.Fatalf("page %d differs across runs", i)
		}
	}
}

func TestGenerateStructure(t *testing.T) {
	c := Generate(small())
	if got := len(c.Topics); got != 3+3*2 {
		t.Fatalf("topics = %d", got)
	}
	if got := len(c.Pages); got != 3*2*10 {
		t.Fatalf("pages = %d", got)
	}
	leaves := c.Leaves()
	if len(leaves) != 6 {
		t.Fatalf("leaves = %d", len(leaves))
	}
	for _, l := range leaves {
		if !strings.HasPrefix(l.Path, "/") || strings.Count(l.Path, "/") != 2 {
			t.Fatalf("leaf path %q malformed", l.Path)
		}
		if len(c.LeafPages[l.ID]) != 10 {
			t.Fatalf("leaf %d has %d pages", l.ID, len(c.LeafPages[l.ID]))
		}
	}
	// URL lookup round-trips.
	for _, p := range c.Pages {
		if c.ByURL[p.URL] != p.ID {
			t.Fatalf("ByURL broken for %s", p.URL)
		}
	}
	if c.Page(0) != nil || c.Page(int64(len(c.Pages)+1)) != nil {
		t.Fatal("out-of-range Page not nil")
	}
	if c.Page(1).ID != 1 {
		t.Fatal("Page(1) wrong")
	}
}

func TestFrontPagesAreSparse(t *testing.T) {
	c := Generate(Config{Seed: 7, TopTopics: 2, SubPerTopic: 2, PagesPerLeaf: 60})
	var frontLen, contentLen, nFront, nContent int
	for _, p := range c.Pages {
		words := len(strings.Fields(p.Text))
		if p.Front {
			frontLen += words
			nFront++
		} else {
			contentLen += words
			nContent++
		}
	}
	if nFront == 0 || nContent == 0 {
		t.Fatalf("front/content split degenerate: %d/%d", nFront, nContent)
	}
	avgFront := float64(frontLen) / float64(nFront)
	avgContent := float64(contentLen) / float64(nContent)
	if avgFront*3 > avgContent {
		t.Fatalf("front pages not sparse: front=%.1f content=%.1f", avgFront, avgContent)
	}
}

func TestLinkLocality(t *testing.T) {
	c := Generate(Config{Seed: 11, TopTopics: 4, SubPerTopic: 3, PagesPerLeaf: 30})
	sameLeaf, sameTop, total := 0, 0, 0
	for _, p := range c.Pages {
		for _, l := range p.Links {
			q := c.Page(l)
			total++
			if q.Topic == p.Topic {
				sameLeaf++
			} else if c.Topics[q.Topic].Parent == c.Topics[p.Topic].Parent {
				sameTop++
			}
		}
	}
	if total == 0 {
		t.Fatal("no links generated")
	}
	leafFrac := float64(sameLeaf) / float64(total)
	if leafFrac < 0.4 {
		t.Fatalf("intra-leaf link fraction %.2f too low", leafFrac)
	}
	if leafFrac > 0.95 {
		t.Fatalf("intra-leaf link fraction %.2f leaves no noise", leafFrac)
	}
	_ = sameTop
}

func TestTopicalVocabularySeparates(t *testing.T) {
	c := Generate(Config{Seed: 13, TopTopics: 2, SubPerTopic: 2, PagesPerLeaf: 20})
	d := text.NewDict()
	// TF-IDF centroids per leaf topic over content pages — the weighting the
	// mining modules actually use; raw TF is dominated by the shared Zipf
	// background (by design, like stopwords on the real Web).
	corpus := text.NewCorpus()
	raw := map[int64]text.Vector{}
	for _, p := range c.Pages {
		v := text.VectorFromText(d, p.Text)
		raw[p.ID] = v
		corpus.AddDoc(v)
	}
	cent := map[int]text.Vector{}
	for _, l := range c.Leaves() {
		var vecs []text.Vector
		for _, pid := range c.LeafPages[l.ID] {
			if c.Page(pid).Front {
				continue
			}
			vecs = append(vecs, corpus.TFIDF(raw[pid]))
		}
		cent[l.ID] = text.Centroid(vecs)
	}
	// Separation property that matters downstream: a content page is closer
	// to its own topic centroid than to any other topic's centroid, for the
	// overwhelming majority of pages (nearest-centroid accuracy).
	correct, total := 0, 0
	for _, p := range c.Pages {
		if p.Front {
			continue
		}
		total++
		v := corpus.TFIDF(raw[p.ID])
		best, bestSim := -1, -1.0
		for _, l := range c.Leaves() {
			if s := text.Cosine(v, cent[l.ID]); s > bestSim {
				best, bestSim = l.ID, s
			}
		}
		if best == p.Topic {
			correct++
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.9 {
		t.Fatalf("nearest-centroid accuracy %.2f, want >= 0.9", acc)
	}
}

func TestNoSelfLinks(t *testing.T) {
	c := Generate(small())
	for _, p := range c.Pages {
		seen := map[int64]bool{}
		for _, l := range p.Links {
			if l == p.ID {
				t.Fatalf("page %d links to itself", p.ID)
			}
			if seen[l] {
				t.Fatalf("page %d has duplicate link to %d", p.ID, l)
			}
			seen[l] = true
		}
	}
}

// TestGenerateAllocBudget bounds what one generation allocates: the
// corpus itself (pages, texts, URLs, titles, links, the two indexes) and
// little else. Counts repeat run to run where times do not.
func TestGenerateAllocBudget(t *testing.T) {
	const budget = 23300 // measured 22 257 on linux/amd64, go 1.24
	cfg := Config{Seed: 1, PagesPerLeaf: 100}
	got := testing.AllocsPerRun(3, func() { Generate(cfg) })
	if got > budget {
		t.Fatalf("Generate made %.0f allocations, budget %d", got, budget)
	}
}

var corpusSink *Corpus

// BenchmarkGenerate builds the benchmark's Web (bench/workloads.go:
// seed 1, 800 pages a leaf, 38 400 pages).
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	cfg := Config{Seed: 1, PagesPerLeaf: 800}
	for i := 0; i < b.N; i++ {
		corpusSink = Generate(cfg)
	}
}
