// Package webcorpus generates the synthetic Web that stands in for the
// live Web of the paper's deployment (DESIGN.md §2).
//
// The generator builds a two-level topic taxonomy; each leaf topic owns a
// vocabulary, each page samples terms from a mixture of its topic's
// vocabulary, its parent's, and a shared Zipf background. A tunable
// fraction of pages are sparse "front pages" — the paper's observation
// that people bookmark graphics-heavy front pages with little text is the
// reason text-only classification collapses to ~40% (experiment E1).
// Links are predominantly intra-topic with tunable cross-topic noise,
// preserving the link locality that the enhanced classifier and the
// focused crawler exploit.
package webcorpus

import (
	"fmt"
	"math/rand"
	"strings"
)

// Config tunes corpus generation. Zero values take the documented defaults.
type Config struct {
	Seed          int64
	TopTopics     int     // first-level topics (default 8)
	SubPerTopic   int     // leaves per top topic (default 6)
	PagesPerLeaf  int     // pages per leaf topic (default 40)
	VocabPerLeaf  int     // topic-specific terms per leaf (default 40)
	VocabPerTop   int     // terms shared within a top topic (default 30)
	SharedVocab   int     // global background vocabulary (default 400)
	FrontPageFrac float64 // fraction of sparse front pages (default 0.35)
	ContentWords  int     // mean words on a content page (default 120)
	FrontWords    int     // mean words on a front page (default 12)
	// FrontTopicMix is the probability that a front-page word is topical
	// rather than boilerplate (default 0.15). The paper's observation that
	// bookmarked front pages carry "less text and more graphics" is the
	// reason text-only classification collapses; lower values make the E1
	// regime harsher.
	FrontTopicMix float64
	LinksPerPage  int     // mean out-links (default 6)
	IntraLeafProb float64 // link stays in the same leaf (default 0.55)
	IntraTopProb  float64 // else link stays in the same top topic (default 0.30)
	TopicMix      float64 // fraction of content words drawn from leaf vocab (default 0.45)
	ParentMix     float64 // fraction from the top-topic vocab (default 0.20)
}

func (c *Config) defaults() {
	if c.TopTopics == 0 {
		c.TopTopics = 8
	}
	if c.SubPerTopic == 0 {
		c.SubPerTopic = 6
	}
	if c.PagesPerLeaf == 0 {
		c.PagesPerLeaf = 40
	}
	if c.VocabPerLeaf == 0 {
		c.VocabPerLeaf = 40
	}
	if c.VocabPerTop == 0 {
		c.VocabPerTop = 30
	}
	if c.SharedVocab == 0 {
		c.SharedVocab = 400
	}
	if c.FrontPageFrac == 0 {
		c.FrontPageFrac = 0.35
	}
	if c.ContentWords == 0 {
		c.ContentWords = 120
	}
	if c.FrontWords == 0 {
		c.FrontWords = 12
	}
	if c.LinksPerPage == 0 {
		c.LinksPerPage = 6
	}
	if c.IntraLeafProb == 0 {
		c.IntraLeafProb = 0.55
	}
	if c.IntraTopProb == 0 {
		c.IntraTopProb = 0.30
	}
	if c.TopicMix == 0 {
		c.TopicMix = 0.45
	}
	if c.ParentMix == 0 {
		c.ParentMix = 0.20
	}
	if c.FrontTopicMix == 0 {
		c.FrontTopicMix = 0.15
	}
}

// Topic is one node of the generated taxonomy. Top-level topics have
// Parent == -1.
type Topic struct {
	ID     int
	Parent int
	Name   string
	Path   string
	Leaf   bool
	Vocab  []string
}

// Page is one synthetic web page.
type Page struct {
	ID    int64
	URL   string
	Title string
	Text  string
	Topic int // leaf topic id
	Front bool
	Links []int64
}

// Corpus is the generated Web.
type Corpus struct {
	Cfg    Config
	Topics []Topic // topics[0..TopTopics) are top-level, rest leaves
	Pages  []Page
	ByURL  map[string]int64
	// LeafPages maps leaf topic id → page ids.
	LeafPages map[int][]int64
}

// Some thematic name stems so generated topics read naturally.
var topNames = []string{
	"arts", "science", "sports", "computing", "travel", "cooking",
	"finance", "health", "history", "gaming", "gardening", "photography",
}

var subNames = []string{
	"classical", "modern", "theory", "practice", "europe", "asia",
	"beginner", "advanced", "equipment", "events", "research", "reviews",
}

// Generate builds a corpus deterministically from cfg.Seed.
func Generate(cfg Config) *Corpus {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := &Corpus{
		Cfg:       cfg,
		ByURL:     map[string]int64{},
		LeafPages: map[int][]int64{},
	}

	// Shared background vocabulary with Zipfian draw order.
	shared := make([]string, cfg.SharedVocab)
	for i := range shared {
		shared[i] = fmt.Sprintf("word%03d", i)
	}
	// Front-page boilerplate (drawn heavily on front pages).
	boiler := []string{
		"welcome", "homepage", "links", "contact", "about", "news",
		"updated", "new", "index", "main", "info", "email", "guestbook",
	}

	// Topic tree.
	for t := 0; t < cfg.TopTopics; t++ {
		name := topNames[t%len(topNames)]
		if t >= len(topNames) {
			name = fmt.Sprintf("%s%d", name, t/len(topNames))
		}
		vocab := make([]string, cfg.VocabPerTop)
		for i := range vocab {
			vocab[i] = fmt.Sprintf("%s_gen%02d", name, i)
		}
		c.Topics = append(c.Topics, Topic{
			ID: t, Parent: -1, Name: name, Path: "/" + name, Vocab: vocab,
		})
	}
	for t := 0; t < cfg.TopTopics; t++ {
		top := &c.Topics[t]
		for s := 0; s < cfg.SubPerTopic; s++ {
			name := subNames[s%len(subNames)]
			if s >= len(subNames) {
				name = fmt.Sprintf("%s%d", name, s/len(subNames))
			}
			id := len(c.Topics)
			vocab := make([]string, cfg.VocabPerLeaf)
			for i := range vocab {
				vocab[i] = fmt.Sprintf("%s_%s%02d", top.Name, name, i)
			}
			c.Topics = append(c.Topics, Topic{
				ID: id, Parent: t, Name: name,
				Path: top.Path + "/" + name, Leaf: true, Vocab: vocab,
			})
		}
	}

	// Pages.
	for _, topic := range c.Topics {
		if !topic.Leaf {
			continue
		}
		parent := c.Topics[topic.Parent]
		for p := 0; p < cfg.PagesPerLeaf; p++ {
			id := int64(len(c.Pages) + 1)
			front := rng.Float64() < cfg.FrontPageFrac
			var words []string
			if front {
				n := cfg.FrontWords/2 + rng.Intn(cfg.FrontWords)
				for i := 0; i < n; i++ {
					r := rng.Float64()
					switch {
					case r < cfg.FrontTopicMix:
						// faint topical whisper
						words = append(words, topic.Vocab[zipf(rng, len(topic.Vocab))])
					case r < cfg.FrontTopicMix+0.55:
						words = append(words, boiler[rng.Intn(len(boiler))])
					default:
						words = append(words, shared[zipf(rng, len(shared))])
					}
				}
			} else {
				n := cfg.ContentWords/2 + rng.Intn(cfg.ContentWords)
				for i := 0; i < n; i++ {
					r := rng.Float64()
					switch {
					case r < cfg.TopicMix:
						words = append(words, topic.Vocab[zipf(rng, len(topic.Vocab))])
					case r < cfg.TopicMix+cfg.ParentMix:
						words = append(words, parent.Vocab[zipf(rng, len(parent.Vocab))])
					default:
						words = append(words, shared[zipf(rng, len(shared))])
					}
				}
			}
			url := fmt.Sprintf("http://www%s.example.org/%s/p%d.html", parent.Name, topic.Name, p)
			title := fmt.Sprintf("%s %s page %d", parent.Name, topic.Name, p)
			pg := Page{
				ID: id, URL: url, Title: title,
				Text:  strings.Join(words, " "),
				Topic: topic.ID, Front: front,
			}
			c.Pages = append(c.Pages, pg)
			c.ByURL[url] = id
			c.LeafPages[topic.ID] = append(c.LeafPages[topic.ID], id)
		}
	}

	// Links.
	for i := range c.Pages {
		pg := &c.Pages[i]
		leaf := c.Topics[pg.Topic]
		n := 1 + rng.Intn(cfg.LinksPerPage*2-1) // mean ≈ LinksPerPage
		seen := map[int64]bool{pg.ID: true}
		for l := 0; l < n; l++ {
			var target int64
			r := rng.Float64()
			switch {
			case r < cfg.IntraLeafProb:
				ids := c.LeafPages[pg.Topic]
				target = ids[rng.Intn(len(ids))]
			case r < cfg.IntraLeafProb+cfg.IntraTopProb:
				// Same top topic, any leaf.
				sib := cfg.TopTopics + leaf.Parent*cfg.SubPerTopic + rng.Intn(cfg.SubPerTopic)
				ids := c.LeafPages[sib]
				target = ids[rng.Intn(len(ids))]
			default:
				target = c.Pages[rng.Intn(len(c.Pages))].ID
			}
			if !seen[target] {
				seen[target] = true
				pg.Links = append(pg.Links, target)
			}
		}
	}
	return c
}

// zipf draws an index in [0,n) with probability ∝ 1/(i+1): a light Zipf
// distribution adequate for term frequency realism.
func zipf(rng *rand.Rand, n int) int {
	// Inverse-CDF on harmonic weights would need precomputation; a simple
	// rejection-free trick: draw u^2 to skew toward 0.
	u := rng.Float64()
	return int(u * u * float64(n))
}

// Page returns the page with the given id (ids are 1-based and dense).
func (c *Corpus) Page(id int64) *Page {
	if id < 1 || int(id) > len(c.Pages) {
		return nil
	}
	return &c.Pages[id-1]
}

// Leaves returns all leaf topics.
func (c *Corpus) Leaves() []Topic {
	var out []Topic
	for _, t := range c.Topics {
		if t.Leaf {
			out = append(out, t)
		}
	}
	return out
}

// TopicPath returns the path of topic id ("" when out of range).
func (c *Corpus) TopicPath(id int) string {
	if id < 0 || id >= len(c.Topics) {
		return ""
	}
	return c.Topics[id].Path
}

// OnTopic reports whether page id belongs to leaf topic (or any leaf under
// a top-level topic) t.
func (c *Corpus) OnTopic(pageID int64, topicID int) bool {
	pg := c.Page(pageID)
	if pg == nil || topicID < 0 || topicID >= len(c.Topics) {
		return false
	}
	if pg.Topic == topicID {
		return true
	}
	return c.Topics[pg.Topic].Parent == topicID
}
