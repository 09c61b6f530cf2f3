// Package crawler implements the resource-discovery demons of §4: a
// focused crawler (Chakrabarti, van den Berg, Dom 1999) that expands from
// community seed pages and prioritises its frontier by the topical
// relevance of the parent page — against an unfocused breadth-first
// baseline. Experiment E6 reproduces the harvest-rate comparison.
//
// The crawler fetches from a Fetcher abstraction; in this reproduction the
// Fetcher serves the synthetic webcorpus (DESIGN.md §2), preserving
// the behaviour that matters: relevance-skewed link frontiers.
package crawler

import (
	"container/heap"
	"sort"
)

// FetchResult is one fetched page: its content and out-links. Content
// arrives either as raw text (a live or synthetic web fetch) or as
// pre-computed term counts (a page served from the archive's versioned
// derived records, where the raw text was never persisted) — whichever
// the Fetcher has cheapest.
type FetchResult struct {
	Page int64
	// Text is the page's raw content; empty when Counts is set.
	Text string
	// Counts is the page's term-count record; nil when Text is set.
	Counts map[string]int
	Links  []int64
}

// Fetcher retrieves pages by id. Implementations may simulate latency.
type Fetcher interface {
	Fetch(page int64) (FetchResult, bool)
}

// Relevance scores a fetched page for the crawl topic in [0,1]; the
// focused crawler typically wraps the Memex classifier's posterior for
// the target topic. Scorers must handle whichever content form (Text or
// Counts) their Fetcher produces.
type Relevance func(fr FetchResult) float64

// Result summarises a crawl.
type Result struct {
	// Fetched lists pages in fetch order.
	Fetched []int64
	// Relevant[i] is the on-topic judgement of Fetched[i] (by the scorer,
	// thresholded) — used for harvest-rate curves.
	Relevant []bool
	// Scores maps page → relevance score.
	Scores map[int64]float64
}

// HarvestCurve returns the cumulative fraction of relevant pages after
// each fetch: the paper's harvest-rate plot.
func (r *Result) HarvestCurve() []float64 {
	out := make([]float64, len(r.Fetched))
	rel := 0
	for i := range r.Fetched {
		if r.Relevant[i] {
			rel++
		}
		out[i] = float64(rel) / float64(i+1)
	}
	return out
}

// HarvestRate returns the final fraction of fetched pages that were
// relevant.
func (r *Result) HarvestRate() float64 {
	if len(r.Fetched) == 0 {
		return 0
	}
	rel := 0
	for _, b := range r.Relevant {
		if b {
			rel++
		}
	}
	return float64(rel) / float64(len(r.Fetched))
}

// Options configures a crawl.
type Options struct {
	// Budget is the number of pages to fetch.
	Budget int
	// Threshold is the relevance score above which a page counts as
	// on-topic (default 0.5).
	Threshold float64
	// Focused selects frontier prioritisation by parent relevance; false
	// gives the FIFO breadth-first baseline.
	Focused bool
}

// Crawl runs from the seed pages. Seeds are always fetched first (in
// order); their own relevance still counts toward the harvest rate.
func Crawl(f Fetcher, rel Relevance, seeds []int64, opts Options) *Result {
	if opts.Budget <= 0 {
		opts.Budget = 100
	}
	if opts.Threshold == 0 {
		opts.Threshold = 0.5
	}
	res := &Result{Scores: map[int64]float64{}}
	visited := map[int64]bool{}

	// Frontier: max-heap on priority for focused, FIFO for BFS.
	pq := &frontier{focused: opts.Focused}
	heap.Init(pq)
	seq := 0
	for _, s := range seeds {
		heap.Push(pq, frontierItem{page: s, priority: 1, order: seq})
		seq++
	}

	for pq.Len() > 0 && len(res.Fetched) < opts.Budget {
		it := heap.Pop(pq).(frontierItem)
		if visited[it.page] {
			continue
		}
		visited[it.page] = true
		fr, ok := f.Fetch(it.page)
		if !ok {
			continue
		}
		score := rel(fr)
		res.Fetched = append(res.Fetched, it.page)
		res.Relevant = append(res.Relevant, score >= opts.Threshold)
		res.Scores[it.page] = score
		for _, l := range fr.Links {
			if visited[l] {
				continue
			}
			heap.Push(pq, frontierItem{page: l, priority: score, order: seq})
			seq++
		}
	}
	return res
}

type frontierItem struct {
	page     int64
	priority float64
	order    int
}

type frontier struct {
	items   []frontierItem
	focused bool
}

func (f frontier) Len() int { return len(f.items) }
func (f frontier) Less(i, j int) bool {
	a, b := f.items[i], f.items[j]
	if f.focused && a.priority != b.priority {
		return a.priority > b.priority
	}
	return a.order < b.order // FIFO tiebreak / BFS order
}
func (f frontier) Swap(i, j int) { f.items[i], f.items[j] = f.items[j], f.items[i] }
func (f *frontier) Push(x any)   { f.items = append(f.items, x.(frontierItem)) }
func (f *frontier) Pop() any {
	old := f.items
	n := len(old)
	x := old[n-1]
	f.items = old[:n-1]
	return x
}

// Discovery ranks the crawled neighbourhood for a topic: pages are scored
// by relevance-weighted in-link mass among fetched pages (a light
// authority measure that needs no full HITS run), returning the top k new
// resources. This is what the resource-discovery demon publishes per theme.
func Discovery(res *Result, outLinks func(page int64) []int64, k int) []int64 {
	mass := map[int64]float64{}
	for _, p := range res.Fetched {
		ps := res.Scores[p]
		for _, l := range outLinks(p) {
			if s, ok := res.Scores[l]; ok {
				mass[l] += ps * s
			}
		}
	}
	ids := make([]int64, 0, len(mass))
	for id := range mass {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if mass[ids[i]] != mass[ids[j]] {
			return mass[ids[i]] > mass[ids[j]]
		}
		return ids[i] < ids[j]
	})
	if k < len(ids) {
		ids = ids[:k]
	}
	return ids
}
