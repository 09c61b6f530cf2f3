// Package memex is a reproduction of "Memex: A browsing assistant for
// collaborative archiving and mining of surf trails" (Chakrabarti,
// Srivastava, Subramanyam, Tiwari; VLDB 2000): a server that archives a
// community's Web browsing, blurs the line between history and bookmarks,
// and mines the combined stream — full-text search over everything
// visited, per-user folder classification with link and co-placement
// evidence, topical trail replay, community theme discovery, focused
// resource discovery, and profile-based collaborative recommendation.
//
// The package is a thin facade: open an embedded engine with Open, or
// serve it over HTTP with Serve and talk to it with NewClient. Config is
// the engine's one configuration, and its zero values are the product's.
// Everything underneath (storage engines, mining algorithms, the synthetic
// Web used for experiments) lives in internal/ packages and is documented
// in DESIGN.md.
//
// The repo holds its cross-cutting invariants by construction where an
// API can — a version-store pin is a closure scope, an HTTP handler
// returns its reply instead of writing it — and enforces the rest — no
// iteration under locks, deterministic codecs and schedules, atomic
// derived-record publishes, typed atomics only — with a small syntactic
// static-analysis suite over every file, test files included; see
// internal/analysis and `go test ./internal/analysis/` (TestTreeClean).
//
// Quickstart:
//
//	world := memex.GenerateWorld(memex.WorldConfig{Seed: 1})
//	m, _ := memex.Open(memex.Config{Dir: dir, Source: world.Source()})
//	defer m.Close()
//	m.RegisterUser(1, "alice")
//	m.RecordVisit(1, url, "", time.Now(), memex.Community)
//	hits := m.Search(1, "classical music", 10)
package memex

import (
	"memex/internal/core"
	"memex/internal/events"
	"memex/internal/sim"
	"memex/internal/webcorpus"
)

// Privacy re-exports the archiving modes of the client (§2: "the user can
// choose not to archive surfing actions, archive for private use, or
// archive for use by the community").
type Privacy = events.Privacy

// Privacy modes.
const (
	Off       = events.Off
	Private   = events.Private
	Community = events.Community
)

// Config configures an embedded Memex engine (alias of the engine type,
// the one configuration). Dir and Source are required; every other field's
// zero value is what the benchmarks run, and memexd too but for its mining
// intervals: group commit (an acknowledged write survives a process crash,
// not a power cut; Durable fsyncs every commit), the version-store GC
// demon every 2s (GCInterval; negative turns it off), and mining demons
// only on demand (ThemeInterval, TrainInterval). Now injects the engine
// clock for replaying historical traces (default time.Now).
type Config = core.Config

// PageSource resolves URLs to content (alias of the engine interface).
type PageSource = core.PageSource

// Content is a resolved page (alias of the engine type).
type Content = core.Content

// PageInfo, TrailContext and ThemeInfo are query result types.
type (
	PageInfo     = core.PageInfo
	TrailContext = core.TrailContext
	ThemeInfo    = core.ThemeInfo
	Stats        = core.Stats
)

// Memex is an embedded engine instance.
type Memex struct {
	*core.Engine
}

// Open starts an embedded Memex over the given directory.
func Open(cfg Config) (*Memex, error) {
	e, err := core.Open(cfg)
	if err != nil {
		return nil, err
	}
	return &Memex{Engine: e}, nil
}

// WorldConfig configures the synthetic Web + surfer population used by the
// examples and experiments (the substitution for the paper's volunteers;
// see DESIGN.md §2).
type WorldConfig struct {
	Seed int64
	// Web tunes the synthetic corpus (zero values take defaults).
	Web webcorpus.Config
	// Surf tunes the simulated community (zero values take defaults).
	Surf sim.Config
}

// World bundles the synthetic Web with its simulated surfer trace.
type World struct {
	Corpus *webcorpus.Corpus
	Trace  *sim.Trace
}

// GenerateWorld builds a deterministic world from the seed.
func GenerateWorld(cfg WorldConfig) *World {
	if cfg.Web.Seed == 0 {
		cfg.Web.Seed = cfg.Seed
	}
	if cfg.Surf.Seed == 0 {
		cfg.Surf.Seed = cfg.Seed + 1
	}
	corpus := webcorpus.Generate(cfg.Web)
	trace := sim.Simulate(corpus, cfg.Surf)
	return &World{Corpus: corpus, Trace: trace}
}

// Source exposes the world's Web as a PageSource for the engine.
func (w *World) Source() PageSource {
	return worldSource{w.Corpus}
}

type worldSource struct {
	c *webcorpus.Corpus
}

// Lookup implements PageSource over the synthetic corpus.
func (s worldSource) Lookup(url string) (Content, bool) {
	id, ok := s.c.ByURL[url]
	if !ok {
		return Content{}, false
	}
	p := s.c.Page(id)
	links := make([]string, 0, len(p.Links))
	for _, l := range p.Links {
		links = append(links, s.c.Page(l).URL)
	}
	return Content{URL: p.URL, Title: p.Title, Text: p.Text, Links: links}, true
}

// ReplayTrace feeds a simulated community trace into the engine: visits as
// community-public events and bookmarks into each user's folders. It
// returns the number of visits replayed. Heavy analysis happens in the
// background; call DrainBackground to wait for it.
func (m *Memex) ReplayTrace(w *World, maxVisits int) (int, error) {
	for _, u := range w.Trace.Users {
		if err := m.RegisterUser(u.ID, u.Name); err != nil {
			return 0, err
		}
	}
	n := 0
	for _, v := range w.Trace.Visits {
		if maxVisits > 0 && n >= maxVisits {
			break
		}
		var ref string
		if v.Referrer != 0 {
			ref = w.Corpus.Page(v.Referrer).URL
		}
		if err := m.RecordVisit(v.User, w.Corpus.Page(v.Page).URL, ref, v.Time, Community); err != nil {
			return n, err
		}
		n++
	}
	for _, b := range w.Trace.Bookmarks {
		if err := m.AddBookmark(b.User, w.Corpus.Page(b.Page).URL, b.Folder, b.Time); err != nil {
			return n, err
		}
	}
	return n, nil
}
