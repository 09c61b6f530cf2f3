package core

import (
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"memex/internal/crawler"
	"memex/internal/events"
	"memex/internal/folders"
	"memex/internal/profile"
	"memex/internal/recommend"
	"memex/internal/textindex"
	"memex/internal/themes"
	"memex/internal/trails"
)

// PageInfo is page metadata returned by queries.
type PageInfo struct {
	ID    int64
	URL   string
	Title string
	Score float64
}

// pageInfoLocked decorates a page id with its metadata for a query
// answer (mu held, either mode).
func (e *Engine) pageInfoLocked(id int64, score float64) PageInfo {
	rec := e.meta[id]
	return PageInfo{ID: id, URL: rec.url, Title: rec.title, Score: score}
}

// visibleLocked reports whether an answer to user may name page (e.mu
// held, either mode); DESIGN.md §1 states the rule. A page is visible when
// some visit archived it for community use, when user visited it, or when
// the archive holds no text of it: a page known only as a link target,
// which the pages linking to it name already. A fetched page that no
// community visit archived — one another user visited privately — is
// named only to the users who visited it. User 0, the anonymous asker,
// has visited nothing.
func (e *Engine) visibleLocked(user, page int64) bool {
	rec := e.meta[page]
	return rec.community || !rec.fetched || e.visited[user][page]
}

// Search runs ranked full-text retrieval over pages the user may see:
// every indexed page is fetched, so that is their own archive plus all
// community-visible pages. User 0 is an anonymous query and sees the
// community-visible pages only.
func (e *Engine) Search(user int64, query string, k int) []PageInfo {
	hits := e.idx.Search(query, k*4+16, textindex.BM25)
	out := make([]PageInfo, 0, min(k, len(hits)))
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, h := range hits {
		if !e.visibleLocked(user, h.Doc) {
			continue
		}
		out = append(out, e.pageInfoLocked(h.Doc, h.Score))
		if len(out) == k {
			break
		}
	}
	return out
}

// SearchWhen answers the paper's time-scoped recall question ("what was
// the URL I visited about six months back regarding X?"): ranked search
// restricted to pages the user visited within [from, to). Zero bounds are
// open-ended.
//
//memexvet:ignore reader the paper's time-scoped recall, an answer kind ROADMAP item 18 lists; it waits for a route
func (e *Engine) SearchWhen(user int64, query string, k int, from, to time.Time) []PageInfo {
	// Pages the user visited in the window: one key range of the visits
	// table, which reads this user's records in the window and no other,
	// no matter how long the archive history grows.
	window := map[int64]bool{}
	e.visitsIn(user, from, to, func(r visitRow) bool {
		window[r.page] = true
		return true
	})
	if len(window) == 0 {
		return nil
	}
	hits := e.idx.Search(query, k*8+32, textindex.BM25)
	out := make([]PageInfo, 0, min(k, len(hits)))
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, h := range hits {
		if !window[h.Doc] {
			continue
		}
		out = append(out, e.pageInfoLocked(h.Doc, h.Score))
		if len(out) == k {
			break
		}
	}
	return out
}

// visitRows loads visits as trail events in (time, id) order, filtered to
// what `user` may see (their own visits plus community-public visits when
// includeCommunity). Community visits belong to every user, so it reads
// the whole table: one scan, whose per-user runs are each in (time, id)
// order already and are merged, not sorted.
func (e *Engine) visitRows(user int64, includeCommunity bool) []trails.Visit {
	var runs runHeap
	n := 0
	visitsTable.scanAll(e.kv, func(r visitRow) bool {
		if r.user != user && (!includeCommunity || r.privacy != events.Community) {
			return true
		}
		if len(runs) == 0 || runs[len(runs)-1][0].user != r.user {
			runs = append(runs, nil)
		}
		runs[len(runs)-1] = append(runs[len(runs)-1], r)
		n++
		return true
	})
	out := make([]trails.Visit, 0, n)
	for _, r := range mergeVisits(runs, n) {
		out = append(out, trails.Visit{User: r.user, Page: r.page, Referrer: r.ref, Time: r.time()})
	}
	return out
}

// TrailContext is the replayed topical browsing context of Figure 2.
type TrailContext struct {
	Folder string
	Pages  []PageInfo
	// Edges are transitions between pages, strongest first.
	Edges [][2]int64
	// Popular are authoritative pages in or near the community trail graph
	// for this topic.
	Popular []PageInfo
}

// Trails replays the user's (and the community's) recent browsing context
// for one of the user's folders: pages most likely to belong to the folder
// per the user's classifier, assembled into a trail graph.
func (e *Engine) Trails(user int64, folder string, k int) TrailContext {
	e.mu.RLock()
	model := e.models[user]
	e.mu.RUnlock()

	// The whole replay classifies pages against one pinned snapshot of
	// the derived term stats, so a concurrent fetch can't flip a page's
	// topic mid-replay.
	ctx := TrailContext{Folder: folder}
	e.withView(func(view *DerivedView) {
		onTopic := func(page int64) bool {
			if model == nil {
				// Untrained: fall back to the user's explicit folder content.
				e.mu.RLock()
				defer e.mu.RUnlock()
				t := e.trees[user]
				if t == nil {
					return false
				}
				of := t.FolderOfPage(page)
				return of != nil && strings.HasPrefix(of.Path()+"/", folder+"/")
			}
			tf := view.TermCounts(page)
			if tf.IDs == nil {
				return false
			}
			got, _ := model.ClassifyVector(tf)
			return got == folder || strings.HasPrefix(got+"/", folder+"/")
		}
		// A page's topic is a function of the page, the model and the pinned
		// view, none of which change during the pass: decide it at the page's
		// first visit and remember it for the revisits.
		topic := map[int64]bool{}
		topicFilter := func(page int64) bool {
			on, ok := topic[page]
			if !ok {
				on = onTopic(page)
				topic[page] = on
			}
			return on
		}

		visits := e.visitRows(user, true)
		tg := trails.Replay(visits, trails.Filter{Topic: topicFilter}, 0, e.cfg.Now(), 0)

		// Resolve graph ranking before touching metadata, then filter and
		// decorate the page lists under a single read lock — the per-element
		// lock churn here used to cost one RLock/RUnlock round trip per
		// popular page. The popularity ranking reads the same pinned view as
		// the topic classification: HITS runs over the lnk/rin adjacency
		// records at the view's epoch, so a concurrent fetch can't warp the
		// neighbourhood mid-ranking, and a restarted server ranks from
		// recovered records. Both rankings come whole, so that the k pages
		// each list names are the best k the user may see.
		ctx.Edges = tg.Transitions()
		popular := trails.Popular(tg, view, math.MaxInt)
		e.mu.RLock()
		for _, p := range tg.Nodes {
			if len(ctx.Pages) >= k {
				break
			}
			if e.visibleLocked(user, p) {
				ctx.Pages = append(ctx.Pages, e.pageInfoLocked(p, tg.Weight[p]))
			}
		}
		for _, p := range popular {
			if len(ctx.Popular) >= k {
				break
			}
			if e.visibleLocked(user, p) {
				ctx.Popular = append(ctx.Popular, e.pageInfoLocked(p, 0))
			}
		}
		e.mu.RUnlock()
	})
	return ctx
}

// RebuildThemes consolidates all users' folders into the community
// taxonomy (Figure 4) and returns its statistics. Only pages with fetched
// text contribute (the demons fetch bookmarked pages eagerly). The theme
// inputs come from one pinned snapshot of the derived vectors, so the
// whole clustering pass sees a consistent epoch; the metadata lock is
// held only long enough to skeletonise the folder trees.
func (e *Engine) RebuildThemes() themes.Stats {
	type folderSkel struct {
		user  int64
		path  string
		pages []int64
	}
	var skels []folderSkel
	e.mu.RLock()
	//memexvet:ignore lockiter skeletonising under the lock IS the snapshot step: folder trees mutate in place, and the walk is bounded by users' folders, not the archive
	for user, tree := range e.trees {
		tree.Walk(func(f *folders.Folder) {
			if f.Parent == nil || len(f.Entries) == 0 {
				return
			}
			sk := folderSkel{user: user, path: f.Path()}
			for _, entry := range f.Entries {
				if entry.Guessed {
					continue
				}
				sk.pages = append(sk.pages, entry.Page)
			}
			if len(sk.pages) > 0 {
				skels = append(skels, sk)
			}
		})
	}
	e.mu.RUnlock()
	// Clustering is seeded but order-sensitive; feeding it in map
	// iteration order made every rebuild a slightly different taxonomy.
	// Sorting pins the input, so identical archives — including one
	// recovered from the cold tier after a restart — rebuild identical
	// themes (and identical downstream profiles/recommendations).
	sort.Slice(skels, func(i, j int) bool {
		if skels[i].user != skels[j].user {
			return skels[i].user < skels[j].user
		}
		return skels[i].path < skels[j].path
	})

	// TF-IDF weighting and clustering run with no lock held at all.
	var ufs []themes.UserFolder
	e.withView(func(view *DerivedView) {
		for _, sk := range skels {
			uf := themes.UserFolder{User: sk.user, Path: sk.path}
			for _, page := range sk.pages {
				raw := view.TermCounts(page)
				if raw.Len() == 0 {
					continue
				}
				uf.Docs = append(uf.Docs, themes.DocVec{ID: page, Vec: e.idx.TFIDF(raw)})
			}
			if len(uf.Docs) > 0 {
				ufs = append(ufs, uf)
			}
		}
	})

	tax := themes.Discover(ufs, e.dict, themes.Options{Seed: 1})
	e.mu.Lock()
	e.tax = tax
	e.mu.Unlock()
	return tax.Stats()
}

// ThemeInfo summarises one community theme for clients.
type ThemeInfo struct {
	ID        int
	Parent    int
	Label     string
	Signature []string
	Docs      int
	Users     int
}

// Themes lists the current community taxonomy (empty before the first
// rebuild).
func (e *Engine) Themes() []ThemeInfo {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.tax == nil {
		return nil
	}
	out := make([]ThemeInfo, 0, len(e.tax.Themes))
	for i := range e.tax.Themes {
		th := &e.tax.Themes[i]
		out = append(out, ThemeInfo{
			ID: th.ID, Parent: th.Parent, Label: th.Label,
			Signature: th.Signature, Docs: len(th.Docs), Users: len(th.Contributors),
		})
	}
	return out
}

// Profile returns the user's interest weights over the community taxonomy
// (nil before themes exist or for unknown users).
func (e *Engine) Profile(user int64) *profile.Profile {
	e.mu.RLock()
	tax := e.tax
	e.mu.RUnlock()
	if tax == nil {
		return nil
	}
	docs := e.userDocs(user)
	if len(docs) == 0 {
		return nil
	}
	p := profile.Build(user, docs, tax)
	return &p
}

// userDocs gathers TF-IDF vectors of the user's visited, fetched pages.
// The vectors come from one pinned version-store snapshot, so the profile
// is computed over a consistent view even while ingest publishes.
func (e *Engine) userDocs(user int64) (docs []themes.DocVec) {
	e.withView(func(view *DerivedView) { docs = e.userDocsInView(user, view) })
	return docs
}

// userDocsInView is userDocs against a caller-pinned view, letting one
// snapshot serve several users' profile computations (Recommend).
func (e *Engine) userDocsInView(user int64, view *DerivedView) []themes.DocVec {
	e.mu.RLock()
	pages := make([]int64, 0, len(e.visited[user]))
	for page := range e.visited[user] {
		pages = append(pages, page)
	}
	e.mu.RUnlock()
	// Deterministic page order: profile weights are float accumulations,
	// and downstream ranking must not depend on map iteration order.
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	var docs []themes.DocVec
	for _, page := range pages {
		if raw := view.TermCounts(page); raw.Len() > 0 {
			docs = append(docs, themes.DocVec{ID: page, Vec: e.idx.TFIDF(raw)})
		}
	}
	return docs
}

// recommendPeers is how many nearest peers' pages Recommend draws from.
const recommendPeers = 10

// Recommend suggests up to k community pages for the user via theme-profile
// peer similarity (method ByProfile) or the URL-overlap baseline.
func (e *Engine) Recommend(user int64, k int, byProfile bool) []PageInfo {
	e.mu.RLock()
	tax := e.tax
	users := make([]int64, 0, len(e.trees))
	for u := range e.trees {
		users = append(users, u)
	}
	e.mu.RUnlock()
	if tax == nil {
		return nil
	}

	// All peers' profiles are built from the same pinned snapshot so the
	// similarity comparison is apples-to-apples even under live ingest. A
	// page's tf·idf weighting and theme assignment do not depend on who
	// visited it, so each is computed at the page's first visitor and
	// shared by the rest.
	var recs []int64
	e.withView(func(view *DerivedView) {
		assigner := profile.NewAssigner(tax)
		type pageShares struct {
			fetched bool
			shares  []profile.Share
		}
		assigned := map[int64]pageShares{}
		profiles := map[int64]profile.Profile{}
		visited := map[int64]map[int64]bool{}
		for _, u := range users {
			set := map[int64]bool{}
			e.mu.RLock()
			pages := make([]int64, 0, len(e.visited[u]))
			for page := range e.visited[u] {
				pages = append(pages, page)
				// Only community-visible pages are candidates from peers.
				if u == user || e.meta[page].community {
					set[page] = true
				}
			}
			e.mu.RUnlock()
			// Deterministic page order: profile weights are float accumulations,
			// and downstream ranking must not depend on map iteration order.
			slices.Sort(pages)
			var docs [][]profile.Share
			for _, page := range pages {
				ps, ok := assigned[page]
				if !ok {
					if raw := view.TermCounts(page); raw.Len() > 0 {
						ps = pageShares{true, assigner.Shares(e.idx.TFIDF(raw))}
					}
					assigned[page] = ps
				}
				if ps.fetched {
					docs = append(docs, ps.shares)
				}
			}
			if len(docs) == 0 {
				continue
			}
			profiles[u] = assigner.Profile(u, docs)
			visited[u] = set
		}
		eng := recommend.NewEngine(profiles, visited)
		method := recommend.ByProfile
		if !byProfile {
			method = recommend.ByURLOverlap
		}
		// Link-proximity signal: a candidate page a hop away from something
		// the user already surfed (either direction, at the view's epoch)
		// outranks an unconnected candidate with the same peer mass — the
		// trail-mining intuition that nearby pages extend the user's own
		// paths. Reading the same pinned view keeps the boost consistent with
		// the profiles and reproducible from recovered records. Only pages of
		// the nearest peers can be recommended, so only they are scored: every
		// other peer's pages would cost two adjacency decodes each for a boost
		// nothing reads.
		mine := visited[user]
		boost := map[int64]float64{}
		scanned := map[int64]bool{}
		for _, peer := range eng.Peers(user, method, recommendPeers) {
			if peer.Score <= 0 || len(mine) == 0 {
				// A peer of no similarity contributes no candidates; and no
				// history ⇒ no page can be near it: skip the record decodes
				// rather than compute a boost nothing reads.
				continue
			}
			for p := range visited[peer.User] {
				if mine[p] || scanned[p] {
					continue
				}
				scanned[p] = true
				near := 0
				for _, q := range view.Out(p) {
					if mine[q] {
						near++
					}
				}
				for _, q := range view.In(p) {
					if mine[q] {
						near++
					}
				}
				if near > 0 {
					boost[p] = 1 + math.Log1p(float64(near))
				}
			}
		}
		eng.SetPageScores(boost)
		recs = eng.Recommend(user, method, recommendPeers, k)
	})
	out := make([]PageInfo, 0, len(recs))
	e.mu.RLock()
	for _, p := range recs {
		out = append(out, e.pageInfoLocked(p, 0))
	}
	e.mu.RUnlock()
	return out
}

// Discover runs a focused crawl for one of the user's folders and returns
// fresh authoritative resources for it (the resource-discovery demon's
// on-demand form). Budget bounds fetches.
func (e *Engine) Discover(user int64, folder string, budget, k int) []PageInfo {
	e.mu.RLock()
	model := e.models[user]
	tree := e.trees[user]
	e.mu.RUnlock()
	if model == nil || tree == nil {
		return nil
	}
	// Seeds: the folder's own pages.
	var seeds []int64
	for _, entry := range tree.Entries(folder) {
		seeds = append(seeds, entry.Page)
	}
	if len(seeds) == 0 {
		return nil
	}
	ci := model.ClassIndex(folder)
	if ci < 0 {
		return nil
	}
	rel := func(fr crawler.FetchResult) float64 {
		// Posterior mass of the target folder per the user's model.
		// engineFetcher always serves counts: the page's recovered tf/
		// record or the ones the fetch path just published for it —
		// identical by construction, so the frontier priorities (and hence
		// the crawl) don't depend on which tier served the page.
		return model.PosteriorsVector(fr.Counts)[ci]
	}
	// One pinned view covers the whole crawl: every "already archived"
	// check — and every archived page's term counts and out-links — reads
	// the same epoch, so a concurrent fetch demon can't flip a page's
	// status mid-crawl. The crawl is single-goroutine, matching the
	// view's contract.
	var res *crawler.Result
	var top []int64
	e.withView(func(view *DerivedView) {
		fetcher := &engineFetcher{e: e, view: view}
		res = crawler.Crawl(fetcher, rel, seeds, crawler.Options{
			Budget: budget, Focused: true, Threshold: 0.5,
		})
		// Discovery ranks by link mass. Pages archived before the pin read
		// their adjacency record from the view; pages this very crawl fetched
		// published after the pin, so they read the latest publish.
		outLinks := func(p int64) []int64 {
			if outs, ok := view.OutKnown(p); ok {
				return outs
			}
			return e.links.Out(p)
		}
		top = crawler.Discovery(res, outLinks, k)
	})
	out := make([]PageInfo, 0, len(top))
	e.mu.RLock()
	for _, p := range top {
		out = append(out, e.pageInfoLocked(p, res.Scores[p]))
	}
	e.mu.RUnlock()
	return out
}

// engineFetcher adapts the engine's archive + PageSource to the crawler's
// Fetcher interface. view is the crawl's pinned DerivedView: pages whose
// derived records are visible in it are served entirely from the version
// store — term counts from tf/, adjacency from lnk/ — with zero network
// fetches, which is what lets a restarted server re-propose its whole
// pre-crash frontier without touching the source. Only genuinely new
// pages hit the PageSource and go through the normal fetch/publish path.
type engineFetcher struct {
	e    *Engine
	view *DerivedView
}

// Fetch implements crawler.Fetcher. New pages are indexed through the
// normal fetch path (as the paper's discovery demons do), so discovered
// resources are immediately searchable and carry metadata. Links are
// returned in sorted id order from both tiers, keeping the frontier —
// and therefore the crawl — identical no matter which tier serves a page.
func (f *engineFetcher) Fetch(page int64) (crawler.FetchResult, bool) {
	e := f.e
	if tf := f.view.TermCounts(page); tf.IDs != nil {
		return crawler.FetchResult{Page: page, Counts: tf, Links: f.view.Out(page)}, true
	}
	// A page archived after the view's pin (a concurrent visit or crawl) is
	// invisible at this crawl's epoch, and ingest skips it rather than
	// re-fetch it from the source only to lose the claim race; the next
	// crawl's view will serve it.
	tfs, panicked := e.ingest([]int64{page}, nil)
	if panicked != nil {
		panic(panicked)
	}
	tf, ok := tfs[page]
	if !ok {
		return crawler.FetchResult{}, false
	}
	// Read the page's links from its latest lnk/ record, not from the raw
	// content: the record is the union of content out-links and any
	// earlier visit-referrer edges, sorted, which is exactly what a future
	// life serving this page from the archive will see — the frontier must
	// not depend on which tier served the page. (ingest publishes at least
	// the content links before it returns, on both sides of the claim
	// race.)
	return crawler.FetchResult{Page: page, Counts: tf, Links: e.links.Out(page)}, true
}
