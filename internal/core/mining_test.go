package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"memex/internal/events"
	"memex/internal/folders"
	"memex/internal/profile"
	"memex/internal/recommend"
	"memex/internal/sim"
	"memex/internal/trails"
	"memex/internal/webcorpus"
)

// replayWorld opens an engine over a generated Web and replays a simulated
// community into it — every user registered, the bookmarks and the first
// maxVisits visits of the trace, all archived for community use — then
// drains the analyzers, trains the classifiers and discovers the themes.
func replayWorld(tb testing.TB, web webcorpus.Config, surf sim.Config, maxVisits int) (*Engine, *webcorpus.Corpus, *sim.Trace) {
	tb.Helper()
	c := webcorpus.Generate(web)
	tr := sim.Simulate(c, surf)
	if len(tr.Visits) > maxVisits {
		tr.Visits = tr.Visits[:maxVisits]
	}
	e, err := Open(Config{
		Dir:       tb.TempDir(),
		Source:    corpusSource{c},
		queueSize: 2 * (len(tr.Visits) + len(tr.Bookmarks)), // nothing shed: the world is the whole trace
		Now:       func() time.Time { return tr.Visits[len(tr.Visits)-1].Time.Add(time.Hour) },
	})
	if err != nil {
		tb.Fatalf("Open: %v", err)
	}
	tb.Cleanup(func() { e.Close() })
	replayTrace(tb, e, c, tr)
	e.RetrainClassifiers()
	e.RebuildThemes()
	return e, c, tr
}

// replayTrace registers the trace's users, files the bookmarks made by the
// time of its last visit, records its visits, and drains the analyzers.
func replayTrace(tb testing.TB, e *Engine, c *webcorpus.Corpus, tr *sim.Trace) {
	tb.Helper()
	for _, u := range tr.Users {
		if err := e.RegisterUser(u.ID, u.Name); err != nil {
			tb.Fatal(err)
		}
	}
	last := tr.Visits[len(tr.Visits)-1].Time
	for _, b := range tr.Bookmarks {
		if b.Time.After(last) {
			continue
		}
		if err := e.AddBookmark(b.User, c.Page(b.Page).URL, b.Folder, b.Time); err != nil {
			tb.Fatal(err)
		}
	}
	for _, v := range tr.Visits {
		ref := ""
		if v.Referrer != 0 {
			ref = c.Page(v.Referrer).URL
		}
		if err := e.RecordVisit(v.User, c.Page(v.Page).URL, ref, v.Time, events.Community); err != nil {
			tb.Fatal(err)
		}
	}
	e.DrainBackground()
}

// The reference* functions are Trails, UsageBreakdown and Recommend as
// they were written before a page was scored once per pass: the classifier
// run at every visit, every user's pages weighted and theme-assigned anew,
// the link-proximity boost computed over all peers' pages. They are kept
// as the references the present versions must equal exactly.

func referenceTrails(e *Engine, user int64, folder string, k int) (ctx TrailContext) {
	e.mu.RLock()
	model := e.models[user]
	e.mu.RUnlock()
	e.withView(func(view *DerivedView) {
		topicFilter := func(page int64) bool {
			if model == nil {
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
		tg := trails.Replay(e.visitRows(user, true), trails.Filter{Topic: topicFilter}, 0, e.cfg.Now(), 0)
		ctx = TrailContext{Folder: folder, Edges: tg.Transitions()}
		e.mu.RLock()
		defer e.mu.RUnlock()
		for _, p := range tg.Top(k) {
			ctx.Pages = append(ctx.Pages, e.pageInfoLocked(p, tg.Weight[p]))
		}
		for _, p := range trails.Popular(tg, view, k) {
			ctx.Popular = append(ctx.Popular, e.pageInfoLocked(p, 0))
		}
	})
	return ctx
}

func referenceUsage(e *Engine, user int64, since time.Time) (out []UsageSlice) {
	e.mu.RLock()
	model := e.models[user]
	e.mu.RUnlock()
	type rec struct {
		page int64
		at   time.Time
	}
	var visits []rec
	e.visitsIn(user, since, time.Time{}, func(r visitRow) bool {
		visits = append(visits, rec{r.page, r.time()})
		return true
	})
	if len(visits) == 0 {
		return nil
	}
	sort.Slice(visits, func(i, j int) bool { return visits[i].at.Before(visits[j].at) })
	e.withView(func(view *DerivedView) {
		folderOf := func(page int64) string {
			e.mu.RLock()
			if tree := e.trees[user]; tree != nil {
				if f := tree.FolderOfPage(page); f != nil {
					e.mu.RUnlock()
					return f.Path()
				}
			}
			e.mu.RUnlock()
			if model != nil {
				if tf := view.TermCounts(page); tf.IDs != nil {
					if folder, conf := model.ClassifyVector(tf); conf >= 0.4 {
						return folder
					}
				}
			}
			return "/unfiled"
		}
		agg := map[string]*UsageSlice{}
		var total time.Duration
		for i, v := range visits {
			dwell := 30 * time.Second
			if i+1 < len(visits) {
				if gap := visits[i+1].at.Sub(v.at); gap > 0 && gap <= 30*time.Minute {
					dwell = gap
				}
			}
			folder := folderOf(v.page)
			s := agg[folder]
			if s == nil {
				s = &UsageSlice{Folder: folder}
				agg[folder] = s
			}
			s.Visits++
			s.Time += dwell
			total += dwell
		}
		out = make([]UsageSlice, 0, len(agg))
		for _, s := range agg {
			if total > 0 {
				s.Share = float64(s.Time) / float64(total)
			}
			out = append(out, *s)
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Time != out[j].Time {
				return out[i].Time > out[j].Time
			}
			return out[i].Folder < out[j].Folder
		})
	})
	return out
}

// referenceRecommend also returns the boost it computed, over all peers,
// so that a test can see which pages the present version no longer scores.
func referenceRecommend(e *Engine, user int64, k int, byProfile bool) (out []PageInfo, boost map[int64]float64) {
	e.mu.RLock()
	tax := e.tax
	users := make([]int64, 0, len(e.trees))
	for u := range e.trees {
		users = append(users, u)
	}
	e.mu.RUnlock()
	if tax == nil {
		return nil, nil
	}
	e.withView(func(view *DerivedView) {
		profiles := map[int64]profile.Profile{}
		visited := map[int64]map[int64]bool{}
		for _, u := range users {
			docs := e.userDocsInView(u, view)
			if len(docs) == 0 {
				continue
			}
			profiles[u] = profile.Build(u, docs, tax)
			set := map[int64]bool{}
			e.mu.RLock()
			for page := range e.visited[u] {
				if u == user || e.meta[page].community {
					set[page] = true
				}
			}
			e.mu.RUnlock()
			visited[u] = set
		}
		eng := recommend.NewEngine(profiles, visited)
		mine := visited[user]
		boost = map[int64]float64{}
		scanned := map[int64]bool{}
		for u, set := range visited {
			if u == user || len(mine) == 0 {
				continue
			}
			for p := range set {
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
		method := recommend.ByProfile
		if !byProfile {
			method = recommend.ByURLOverlap
		}
		recs := eng.Recommend(user, method, 10, k)
		out = make([]PageInfo, 0, len(recs))
		e.mu.RLock()
		defer e.mu.RUnlock()
		for _, p := range recs {
			out = append(out, e.pageInfoLocked(p, 0))
		}
	})
	return out, boost
}

// TestMiningAnswersMatchPerVisitComputation plays a seeded community of
// seventeen users — more than the ten peers Recommend draws from — and
// requires Trails, UsageBreakdown and Recommend to answer exactly as the
// per-visit, all-peers computation does, for every user.
func TestMiningAnswersMatchPerVisitComputation(t *testing.T) {
	e, c, tr := replayWorld(t,
		webcorpus.Config{Seed: 16, TopTopics: 4, SubPerTopic: 3, PagesPerLeaf: 30},
		sim.Config{Seed: 17, Users: 16, Days: 6}, 1<<30)
	asker := tr.Users[0].ID
	if len(tr.Visits) < 2*len(e.visited[asker]) {
		t.Fatalf("world too small: %d visits", len(tr.Visits))
	}

	// A far peer: a surfer of one leaf the asker has no interest in, who
	// also came across a page that neighbours one of the asker's. The
	// all-peers computation scores that page; the ten nearest peers'
	// pages need not include it.
	const far = 900
	e.RegisterUser(far, "far")
	var farLeaf int
	for _, leaf := range c.Leaves() {
		if tr.Users[0].Interests[leaf.ID] == 0 {
			farLeaf = leaf.ID
		}
	}
	at := tr.Visits[len(tr.Visits)-1].Time
	for _, pid := range c.LeafPages[farLeaf][:12] {
		e.RecordVisit(far, c.Page(pid).URL, "", at, events.Community)
	}
	var neighbour int64
	for _, v := range tr.VisitsOf(asker) {
		for _, l := range c.Page(v.Page).Links {
			if id := e.idByURL[c.Page(l).URL]; !e.visited[asker][id] {
				neighbour = id
			}
		}
	}
	if neighbour == 0 {
		t.Fatal("the asker has visited every page its pages link to")
	}
	e.RecordVisit(far, e.meta[neighbour].url, "", at, events.Community)
	// A user with a single folder never gets a classifier: Trails answers
	// from the folder tree and usage from placement alone.
	const untrained = 901
	e.RegisterUser(untrained, "untrained")
	for i, pid := range c.LeafPages[farLeaf][:6] {
		url := c.Page(pid).URL
		if i < 3 {
			e.AddBookmark(untrained, url, "/only", at)
		}
		e.RecordVisit(untrained, url, "", at.Add(time.Duration(i)*time.Minute), events.Community)
		e.RecordVisit(untrained, url, "", at.Add(time.Duration(10+i)*time.Minute), events.Community)
	}
	e.DrainBackground()
	e.RetrainClassifiers()
	e.RebuildThemes()

	users := []int64{far, untrained}
	for _, u := range tr.Users {
		users = append(users, u.ID)
	}
	trained, revisits := 0, 0
	for _, u := range users {
		for _, byProfile := range []bool{true, false} {
			for _, k := range []int{5, 50} {
				got := e.Recommend(u, k, byProfile)
				want, _ := referenceRecommend(e, u, k, byProfile)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Recommend(user %d, k %d, byProfile %v):\n got %v\nwant %v", u, k, byProfile, got, want)
				}
			}
		}
		for _, since := range []time.Time{{}, tr.Cfg.Start.Add(72 * time.Hour)} {
			if got, want := e.UsageBreakdown(u, since), referenceUsage(e, u, since); !reflect.DeepEqual(got, want) {
				t.Fatalf("UsageBreakdown(user %d, since %v):\n got %v\nwant %v", u, since, got, want)
			}
		}
		e.mu.RLock()
		paths := folderPaths(e.trees[u])
		if e.models[u] != nil {
			trained++
		}
		e.mu.RUnlock()
		for _, folder := range paths {
			got, want := e.Trails(u, folder, 10), referenceTrails(e, u, folder, 10)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Trails(user %d, %s):\n got %+v\nwant %+v", u, folder, got, want)
			}
			if len(got.Pages) > 0 {
				revisits++
			}
		}
	}
	if trained < 10 || revisits == 0 {
		t.Fatalf("world too plain: %d trained users, %d non-empty trails", trained, revisits)
	}
	e.mu.RLock()
	if e.models[untrained] != nil {
		t.Fatal("the single-folder user got a classifier: the fallback went untested")
	}
	e.mu.RUnlock()

	// The scenario the boost restriction is about did occur: the
	// all-peers computation scored the far peer's neighbouring page, and
	// the far peer is not among the asker's ten nearest.
	_, boost := referenceRecommend(e, asker, 5, true)
	if boost[neighbour] == 0 {
		t.Fatalf("page %d neighbours the asker's pages but got no boost", neighbour)
	}
	if p := e.Profile(asker); p == nil {
		t.Fatal("the asker has no profile")
	}
	nearest := nearestPeers(e, asker)
	if len(nearest) != recommendPeers {
		t.Fatalf("asker has %d peers, want more than %d", len(nearest), recommendPeers)
	}
	for _, u := range nearest {
		if u == far {
			t.Fatalf("the far peer is among the asker's %d nearest: %v", recommendPeers, nearest)
		}
	}
}

// nearestPeers ranks user's peers by profile, as Recommend does.
func nearestPeers(e *Engine, user int64) []int64 {
	profiles := map[int64]profile.Profile{}
	for u := range e.trees {
		if p := e.Profile(u); p != nil {
			profiles[u] = *p
		}
	}
	var out []int64
	for _, ps := range recommend.NewEngine(profiles, nil).Peers(user, recommend.ByProfile, recommendPeers) {
		out = append(out, ps.User)
	}
	return out
}

// benchWorld is the repository benchmark's world: 48 leaves of 800 pages,
// 50 surfers over 16 days, the trace cut at 8 000 visits (5 687 distinct
// pages).
var (
	benchWeb  = webcorpus.Config{Seed: 1, PagesPerLeaf: 800}
	benchSurf = sim.Config{Seed: 2, Users: 50, Days: 16}
)

func benchWorld(b *testing.B) (*Engine, *sim.Trace) {
	e, _, tr := replayWorld(b, benchWeb, benchSurf, 8000)
	return e, tr
}

// BenchmarkMiningPass is the demon pass the benchmark's set-up runs: every
// user's classifier retrained and the community taxonomy rebuilt.
func BenchmarkMiningPass(b *testing.B) {
	e, _ := benchWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RetrainClassifiers()
		e.RebuildThemes()
	}
}

// BenchmarkSearch is the benchmark's search request over benchWorld's
// index: two or three terms drawn from the vocabulary of a visited page's
// topic, skewed toward its head, asked by one of the surfers.
func BenchmarkSearch(b *testing.B) {
	e, c, tr := replayWorld(b, benchWeb, benchSurf, 8000)
	rng := rand.New(rand.NewSource(3))
	queries := make([]string, 256)
	for i := range queries {
		vocab := c.Topics[c.Page(tr.Visits[rng.Intn(len(tr.Visits))].Page).Topic].Vocab
		terms := make([]string, 2+rng.Intn(2))
		for j := range terms {
			u := rng.Float64()
			terms[j] = vocab[int(u*u*float64(len(vocab)))]
		}
		queries[i] = strings.Join(terms, " ")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Search(tr.Users[i%len(tr.Users)].ID, queries[i%len(queries)], 10)
	}
}

func BenchmarkTrails(b *testing.B) {
	e, tr := benchWorld(b)
	type ask struct {
		user   int64
		folder string
	}
	var asks []ask
	for _, u := range tr.Users {
		for _, f := range folderPaths(e.trees[u.ID]) {
			asks = append(asks, ask{u.ID, f})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := asks[i%len(asks)]
		e.Trails(a.user, a.folder, 10)
	}
}

func BenchmarkRecommend(b *testing.B) {
	e, tr := benchWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if recs := e.Recommend(tr.Users[i%len(tr.Users)].ID, 10, true); len(recs) == 0 {
			b.Fatalf("no recommendations for user %d", tr.Users[i%len(tr.Users)].ID)
		}
	}
}

// folderPaths returns every folder path of tree except the root's, sorted.
func folderPaths(tree *folders.Tree) []string {
	var out []string
	tree.Walk(func(f *folders.Folder) {
		if f.Parent != nil {
			out = append(out, f.Path())
		}
	})
	sort.Strings(out)
	return out
}
