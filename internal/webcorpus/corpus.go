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
//
// The corpus is a pure function of its Config: the same Config gives the
// same bytes on every build and every run, and nothing is cached across
// calls. TestWorldFingerprints (package memex) pins it. Every benchmark
// number is measured on a generated world, so a change to any generated
// byte, or to the order of the random draws, is a benchmark change
// (DESIGN.md §2).
package webcorpus

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
)

// Config tunes corpus generation. Zero values take the documented defaults.
type Config struct {
	Seed          int64
	TopTopics     int     // first-level topics (default 8)
	SubPerTopic   int     // leaves per top topic (default 6)
	PagesPerLeaf  int     // pages per leaf topic (default 40)
	FrontPageFrac float64 // fraction of sparse front pages (default 0.35)
	FrontWords    int     // mean words on a front page (default 12)
	// FrontTopicMix is the probability that a front-page word is topical
	// rather than boilerplate (default 0.15). The paper's observation that
	// bookmarked front pages carry "less text and more graphics" is the
	// reason text-only classification collapses; lower values make the E1
	// regime harsher.
	FrontTopicMix float64
	IntraLeafProb float64 // link stays in the same leaf (default 0.55)
	IntraTopProb  float64 // else link stays in the same top topic (default 0.30)
}

// Generation constants: the shape of every page that no caller tunes.
const (
	vocabPerLeaf = 40   // topic-specific terms per leaf
	vocabPerTop  = 30   // terms shared within a top topic
	sharedVocab  = 400  // global background vocabulary
	contentWords = 120  // mean words on a content page
	linksPerPage = 6    // mean out-links
	topicMix     = 0.45 // fraction of content words drawn from leaf vocab
	parentMix    = 0.20 // fraction from the top-topic vocab
)

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
	if c.FrontPageFrac == 0 {
		c.FrontPageFrac = 0.35
	}
	if c.FrontWords == 0 {
		c.FrontWords = 12
	}
	if c.IntraLeafProb == 0 {
		c.IntraLeafProb = 0.55
	}
	if c.IntraTopProb == 0 {
		c.IntraTopProb = 0.30
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
	leaves := cfg.TopTopics * cfg.SubPerTopic
	pages := leaves * cfg.PagesPerLeaf
	c := &Corpus{
		Cfg:       cfg,
		Topics:    make([]Topic, 0, cfg.TopTopics+leaves),
		Pages:     make([]Page, 0, pages),
		ByURL:     make(map[string]int64, pages),
		LeafPages: make(map[int][]int64, leaves),
	}

	// Shared background vocabulary with Zipfian draw order.
	shared := make([]string, sharedVocab)
	for i := range shared {
		shared[i] = numbered("word", i, 3)
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
			name += strconv.Itoa(t / len(topNames))
		}
		vocab := make([]string, vocabPerTop)
		for i := range vocab {
			vocab[i] = numbered(name+"_gen", i, 2)
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
				name += strconv.Itoa(s / len(subNames))
			}
			id := len(c.Topics)
			vocab := make([]string, vocabPerLeaf)
			for i := range vocab {
				vocab[i] = numbered(top.Name+"_"+name, i, 2)
			}
			c.Topics = append(c.Topics, Topic{
				ID: id, Parent: t, Name: name,
				Path: top.Path + "/" + name, Leaf: true, Vocab: vocab,
			})
		}
	}

	// Pages. Each page's words go into one reused buffer, so a page's
	// text costs the one string the corpus keeps.
	var text []byte
	word := func(w string) {
		if len(text) > 0 {
			text = append(text, ' ')
		}
		text = append(text, w...)
	}
	for _, topic := range c.Topics {
		if !topic.Leaf {
			continue
		}
		parent := c.Topics[topic.Parent]
		ids := make([]int64, 0, cfg.PagesPerLeaf)
		for p := 0; p < cfg.PagesPerLeaf; p++ {
			id := int64(len(c.Pages) + 1)
			front := rng.Float64() < cfg.FrontPageFrac
			text = text[:0]
			if front {
				n := cfg.FrontWords/2 + rng.Intn(cfg.FrontWords)
				for i := 0; i < n; i++ {
					r := rng.Float64()
					switch {
					case r < cfg.FrontTopicMix:
						// faint topical whisper
						word(topic.Vocab[zipf(rng, len(topic.Vocab))])
					case r < cfg.FrontTopicMix+0.55:
						word(boiler[rng.Intn(len(boiler))])
					default:
						word(shared[zipf(rng, len(shared))])
					}
				}
			} else {
				n := contentWords/2 + rng.Intn(contentWords)
				for i := 0; i < n; i++ {
					r := rng.Float64()
					switch {
					case r < topicMix:
						word(topic.Vocab[zipf(rng, len(topic.Vocab))])
					case r < topicMix+parentMix:
						word(parent.Vocab[zipf(rng, len(parent.Vocab))])
					default:
						word(shared[zipf(rng, len(shared))])
					}
				}
			}
			num := strconv.Itoa(p)
			url := "http://www" + parent.Name + ".example.org/" + topic.Name + "/p" + num + ".html"
			c.Pages = append(c.Pages, Page{
				ID: id, URL: url, Title: parent.Name + " " + topic.Name + " page " + num,
				Text:  string(text),
				Topic: topic.ID, Front: front,
			})
			c.ByURL[url] = id
			ids = append(ids, id)
		}
		c.LeafPages[topic.ID] = ids
	}

	// Links. A page has at most linksPerPage*2-1 of them, so a scan of
	// those chosen so far is the duplicate check.
	for i := range c.Pages {
		pg := &c.Pages[i]
		leaf := c.Topics[pg.Topic]
		n := 1 + rng.Intn(linksPerPage*2-1) // mean ≈ linksPerPage
		pg.Links = make([]int64, 0, n)
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
			if target != pg.ID && !slices.Contains(pg.Links, target) {
				pg.Links = append(pg.Links, target)
			}
		}
	}
	return c
}

// numbered is prefix followed by i zero-padded to width digits.
func numbered(prefix string, i, width int) string {
	digits := strconv.Itoa(i)
	return prefix + strings.Repeat("0", max(0, width-len(digits))) + digits
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
