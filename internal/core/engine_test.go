package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"memex/internal/events"
	"memex/internal/folders"
	"memex/internal/kvstore"
	"memex/internal/webcorpus"
)

// corpusSource adapts the synthetic web to the engine's PageSource.
type corpusSource struct {
	c *webcorpus.Corpus
}

func (s corpusSource) Lookup(url string) (Content, bool) {
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

func testWorld(t testing.TB) (*webcorpus.Corpus, *Engine) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 5, TopTopics: 3, SubPerTopic: 2, PagesPerLeaf: 20})
	e, err := Open(Config{
		Dir:    t.TempDir(),
		Source: corpusSource{c},
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return c, e
}

var tBase = time.Date(2000, 5, 20, 9, 0, 0, 0, time.UTC)

func TestVisitIngestAndSearch(t *testing.T) {
	c, e := testWorld(t)
	e.RegisterUser(1, "alice")
	// Visit several pages of one leaf topic.
	leaf := c.Leaves()[0]
	for i, pid := range c.LeafPages[leaf.ID][:8] {
		p := c.Page(pid)
		if err := e.RecordVisit(1, p.URL, "", tBase.Add(time.Duration(i)*time.Minute), events.Community); err != nil {
			t.Fatalf("RecordVisit: %v", err)
		}
	}
	e.DrainBackground()

	st := e.Status()
	if st.Visits != 8 {
		t.Fatalf("Visits = %d", st.Visits)
	}
	if st.PagesIndexed < 8 {
		t.Fatalf("PagesIndexed = %d", st.PagesIndexed)
	}

	// Search for the leaf's vocabulary.
	top := c.Topics[leaf.Parent]
	query := fmt.Sprintf("%s_%s01 %s_%s02", top.Name, leaf.Name, top.Name, leaf.Name)
	hits := e.Search(1, query, 5)
	if len(hits) == 0 {
		t.Fatalf("no hits for %q", query)
	}
	for _, h := range hits {
		if h.URL == "" || h.Title == "" {
			t.Fatalf("hit missing metadata: %+v", h)
		}
	}
}

func TestPrivacyModes(t *testing.T) {
	c, e := testWorld(t)
	e.RegisterUser(1, "alice")
	e.RegisterUser(2, "bob")
	// Use content pages only: front pages carry too little text to query.
	var pages []int64
	for _, pid := range c.LeafPages[c.Leaves()[0].ID] {
		if !c.Page(pid).Front {
			pages = append(pages, pid)
		}
	}
	if len(pages) < 3 {
		t.Skip("not enough content pages")
	}

	// Off: nothing recorded.
	e.RecordVisit(1, c.Page(pages[0]).URL, "", tBase, events.Off)
	// Private: recorded, visible to owner only.
	e.RecordVisit(1, c.Page(pages[1]).URL, "", tBase, events.Private)
	// Community: visible to everyone.
	e.RecordVisit(1, c.Page(pages[2]).URL, "", tBase, events.Community)
	e.DrainBackground()

	if st := e.Status(); st.Visits != 2 {
		t.Fatalf("Visits = %d, want 2 (Off discarded)", st.Visits)
	}

	queryFor := func(pid int64) string {
		words := strings.Fields(c.Page(pid).Text)
		// Use the page's own topical words as the query.
		var topical []string
		for _, w := range words {
			if strings.Contains(w, "_") {
				topical = append(topical, w)
			}
			if len(topical) == 4 {
				break
			}
		}
		return strings.Join(topical, " ")
	}

	// Bob must see the community page but not alice's private page.
	seen := func(user, pid int64) bool {
		for _, h := range e.Search(user, queryFor(pid), 50) {
			if h.ID == e.idByURL[c.Page(pid).URL] {
				return true
			}
		}
		return false
	}
	if !seen(2, pages[2]) {
		t.Fatal("community page invisible to another user")
	}
	if seen(2, pages[1]) {
		t.Fatal("private page leaked to another user")
	}
	if !seen(1, pages[1]) {
		t.Fatal("private page invisible to its owner")
	}
}

// intranetSource serves every URL as a page about the bluebird plan.
type intranetSource struct{}

func (intranetSource) Lookup(url string) (Content, bool) {
	return Content{URL: url, Title: "plan", Text: "the bluebird plan"}, true
}

// TestAnonymousSearchSeesOnlyCommunityPages: a search with no user (user
// 0) sees the community-visible pages and nobody's private ones.
func TestAnonymousSearchSeesOnlyCommunityPages(t *testing.T) {
	e, err := Open(Config{
		Dir:    t.TempDir(),
		Source: intranetSource{},
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	e.RegisterUser(1, "alice")
	e.RegisterUser(2, "bob")
	const secret = "http://intranet.example.org/alice/secret-plan"
	const public = "http://www.example.org/bluebird"
	if err := e.RecordVisit(1, secret, "", tBase, events.Private); err != nil {
		t.Fatal(err)
	}
	if err := e.RecordVisit(2, public, "", tBase, events.Community); err != nil {
		t.Fatal(err)
	}
	e.DrainBackground()

	urls := func(user int64) []string {
		var out []string
		for _, h := range e.Search(user, "bluebird", 10) {
			out = append(out, h.URL)
		}
		slices.Sort(out)
		return out
	}
	for _, tc := range []struct {
		user int64
		want []string
	}{
		{0, []string{public}},
		{1, []string{secret, public}},
		{2, []string{public}},
	} {
		if got := urls(tc.user); !slices.Equal(got, tc.want) {
			t.Errorf("Search(%d, bluebird) = %q, want %q", tc.user, got, tc.want)
		}
	}
}

func TestBookmarkTrainClassifyGuess(t *testing.T) {
	c, e := testWorld(t)
	e.RegisterUser(1, "alice")
	leaves := c.Leaves()
	lA, lB := leaves[0], leaves[1]
	// Bookmark several content pages of two topics into two folders.
	filed := 0
	for _, pid := range c.LeafPages[lA.ID] {
		if p := c.Page(pid); !p.Front && filed < 6 {
			e.AddBookmark(1, p.URL, "/TopicA", tBase)
			filed++
		}
	}
	filed = 0
	for _, pid := range c.LeafPages[lB.ID] {
		if p := c.Page(pid); !p.Front && filed < 6 {
			e.AddBookmark(1, p.URL, "/TopicB", tBase)
			filed++
		}
	}
	e.DrainBackground()
	e.RetrainClassifiers()

	// A new visit to an unbookmarked content page of topic A should be
	// guessed into /TopicA.
	var target *webcorpus.Page
	for _, pid := range c.LeafPages[lA.ID] {
		p := c.Page(pid)
		if !p.Front {
			target = p // last content page; bookmarked ones are also fine to skip
		}
	}
	if target == nil {
		t.Skip("no content page available")
	}
	e.RecordVisit(1, target.URL, "", tBase.Add(time.Hour), events.Community)
	e.DrainBackground()

	e.mu.RLock()
	tree := e.trees[1]
	pid := e.idByURL[target.URL]
	f := tree.FolderOfPage(pid)
	e.mu.RUnlock()
	if f == nil {
		t.Fatal("visited page not filed by classifier")
	}
	if f.Path() != "/TopicA" {
		t.Fatalf("guessed folder = %q, want /TopicA", f.Path())
	}
}

func TestImportExportRoundTrip(t *testing.T) {
	c, e := testWorld(t)
	e.RegisterUser(1, "alice")
	p1 := c.Page(c.LeafPages[c.Leaves()[0].ID][0])
	p2 := c.Page(c.LeafPages[c.Leaves()[1].ID][0])
	src := fmt.Sprintf(`<!DOCTYPE NETSCAPE-Bookmark-file-1>
<DL><p>
    <DT><H3>Imported</H3>
    <DL><p>
        <DT><A HREF="%s" ADD_DATE="958800000">One</A>
        <DT><A HREF="%s" ADD_DATE="958800001">Two</A>
    </DL><p>
</DL><p>`, p1.URL, p2.URL)
	n, err := e.ImportBookmarks(1, strings.NewReader(src))
	if err != nil || n != 2 {
		t.Fatalf("Import: n=%d err=%v", n, err)
	}
	e.DrainBackground()

	var buf bytes.Buffer
	if err := e.ExportBookmarks(1, &buf); err != nil {
		t.Fatalf("Export: %v", err)
	}
	if !strings.Contains(buf.String(), p1.URL) || !strings.Contains(buf.String(), "Imported") {
		t.Fatal("export missing imported content")
	}
}

func TestTrailsReplay(t *testing.T) {
	c, e := testWorld(t)
	e.RegisterUser(1, "alice")
	leaf := c.Leaves()[0]
	// Bookmark-train two folders so the classifier exists.
	other := c.Leaves()[1]
	n := 0
	for _, pid := range c.LeafPages[leaf.ID] {
		if p := c.Page(pid); !p.Front && n < 5 {
			e.AddBookmark(1, p.URL, "/Music", tBase)
			n++
		}
	}
	n = 0
	for _, pid := range c.LeafPages[other.ID] {
		if p := c.Page(pid); !p.Front && n < 5 {
			e.AddBookmark(1, p.URL, "/Other", tBase)
			n++
		}
	}
	e.DrainBackground()
	e.RetrainClassifiers()

	// Surf a trail within the leaf topic, with referrers.
	ids := c.LeafPages[leaf.ID]
	var prev string
	at := tBase.Add(2 * time.Hour)
	for i := 0; i < 6; i++ {
		p := c.Page(ids[i])
		e.RecordVisit(1, p.URL, prev, at, events.Community)
		prev = p.URL
		at = at.Add(time.Minute)
	}
	// And an off-topic detour.
	off := c.Page(c.LeafPages[other.ID][7])
	e.RecordVisit(1, off.URL, "", at, events.Community)
	e.DrainBackground()

	ctx := e.Trails(1, "/Music", 10)
	if len(ctx.Pages) == 0 {
		t.Fatal("trail replay empty")
	}
	for _, p := range ctx.Pages {
		if p.ID == e.idByURL[off.URL] {
			t.Fatal("off-topic page leaked into /Music trail")
		}
	}
	if len(ctx.Edges) == 0 {
		t.Fatal("trail has no transitions")
	}
}

func TestThemesAndRecommend(t *testing.T) {
	c, e := testWorld(t)
	// Three users: 1 and 2 share a topic; 3 differs.
	leaves := c.Leaves()
	interests := map[int64]int{1: leaves[0].ID, 2: leaves[0].ID, 3: leaves[2].ID}
	for u := int64(1); u <= 3; u++ {
		e.RegisterUser(u, fmt.Sprintf("user%d", u))
		n := 0
		for _, pid := range c.LeafPages[interests[u]] {
			p := c.Page(pid)
			if p.Front {
				continue
			}
			e.AddBookmark(u, p.URL, "/stuff", tBase)
			e.RecordVisit(u, p.URL, "", tBase.Add(time.Duration(n)*time.Minute), events.Community)
			n++
			if n == 8 {
				break
			}
		}
	}
	// User 2 visits extra pages user 1 hasn't seen.
	extra := 0
	for _, pid := range c.LeafPages[interests[2]] {
		p := c.Page(pid)
		if !p.Front {
			continue
		}
		e.RecordVisit(2, p.URL, "", tBase.Add(time.Hour), events.Community)
		extra++
		if extra == 3 {
			break
		}
	}
	e.DrainBackground()

	st := e.RebuildThemes()
	if st.Themes == 0 {
		t.Fatal("no themes discovered")
	}
	if got := e.Themes(); len(got) != st.Themes {
		t.Fatalf("Themes() = %d, stats = %d", len(got), st.Themes)
	}

	p := e.Profile(1)
	if p == nil || len(p.Weights) == 0 {
		t.Fatal("no profile for user 1")
	}

	recs := e.Recommend(1, 5, true)
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	// Everything recommended must be unseen by user 1 and community-visible.
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, r := range recs {
		if e.visited[1][r.ID] {
			t.Fatalf("recommended a page user 1 already saw: %d", r.ID)
		}
	}
}

func TestPersistenceAcrossRestart(t *testing.T) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 6, TopTopics: 2, SubPerTopic: 2, PagesPerLeaf: 10})
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, Source: corpusSource{c}, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	e.RegisterUser(1, "alice")
	p := c.Page(1)
	e.RecordVisit(1, p.URL, "", tBase, events.Community)
	e.AddBookmark(1, p.URL, "/Saved", tBase)
	e.DrainBackground()
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	e2, err := Open(Config{Dir: dir, Source: corpusSource{c}})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer e2.Close()
	st := e2.Status()
	if st.Bookmarks != 0 && st.Visits != 0 {
		// Counters are runtime counters; persistent state is what matters:
	}
	e2.mu.RLock()
	tree := e2.trees[1]
	e2.mu.RUnlock()
	if tree == nil || tree.Count() != 1 {
		t.Fatal("bookmark tree lost across restart")
	}
	if tree.FolderOfPage(e2.idByURL[p.URL]) == nil {
		t.Fatal("bookmark page lost")
	}
}

// treeLines renders a user's folder tree, one line an entry, times
// included.
func treeLines(e *Engine, user int64) []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out []string
	e.trees[user].Walk(func(f *folders.Folder) {
		for _, en := range f.Entries {
			out = append(out, fmt.Sprintf("%s %d %s %q %s %v", f.Path(), en.Page, en.URL, en.Title, en.Added.Format(time.RFC3339Nano), en.Guessed))
		}
	})
	return out
}

// TestCorrectionSurvivesReopen: a correction is a bookmark row, filed into
// the tree only once the row is written and as reload files it. So a
// correction the store refuses (a folder too long for one record) leaves
// the tree as it was, and the tree after Close → Open is the tree before
// it, the correction's time included.
func TestCorrectionSurvivesReopen(t *testing.T) {
	page := Content{URL: "http://zoo.example/okapi", Title: "Okapi", Text: "okapi forest"}
	tCorrect := tBase.Add(time.Hour)
	cfg := Config{Dir: t.TempDir(), Source: oneSource{page}, Now: func() time.Time { return tCorrect }}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.RegisterUser(1, "alice")
	// Fetched first, so every entry carries the page's title.
	if err := e.RecordVisit(1, page.URL, "", tBase, events.Community); err != nil {
		t.Fatal(err)
	}
	e.DrainBackground()
	if err := e.AddBookmark(1, page.URL, "/animals", tBase); err != nil {
		t.Fatal(err)
	}
	if err := e.CorrectPlacement(1, page.URL, "/animals/forest"); err != nil {
		t.Fatal(err)
	}
	want := treeLines(e, 1)
	long := "/" + strings.Repeat("x", kvstore.MaxKV)
	if err := e.CorrectPlacement(1, page.URL, long); !kvstore.ErrTooLarge(err) {
		t.Fatalf("correction into a %d-byte folder: %v, want the store's too-large error", len(long), err)
	}
	if got := treeLines(e, 1); !slices.Equal(got, want) {
		t.Errorf("the refused correction changed the tree:\n%q\nwant\n%q", got, want)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if got := treeLines(e, 1); !slices.Equal(got, want) {
		t.Errorf("tree after reopen:\n%q\nwant the tree before Close:\n%q", got, want)
	}
}

// TestOversizeURLDoesNotPoisonArchive: nothing caps a URL, and one too long
// for a pages row is refused — by the store, before its log. Logged first,
// the record made every recovery fail: a copy of the running directory
// taken after the refused visit would not open.
func TestOversizeURLDoesNotPoisonArchive(t *testing.T) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 6, TopTopics: 2, SubPerTopic: 2, PagesPerLeaf: 10})
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, Source: corpusSource{c}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.RegisterUser(1, "alice")
	p := c.Page(1)
	if err := e.RecordVisit(1, p.URL, "", tBase, events.Community); err != nil {
		t.Fatal(err)
	}
	long := "http://a.example/" + strings.Repeat("x", 2000)
	if err := e.RecordVisit(1, long, "", tBase, events.Community); !kvstore.ErrTooLarge(err) {
		t.Fatalf("visit to a %d-byte URL: %v, want the store's too-large error", len(long), err)
	}
	e.DrainBackground()

	snap := t.TempDir()
	for path, raw := range dirBytes(t, dir) {
		rel, _ := filepath.Rel(dir, path)
		if err := os.MkdirAll(filepath.Dir(filepath.Join(snap, rel)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(snap, rel), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	e2, err := Open(Config{Dir: snap, Source: corpusSource{c}})
	if err != nil {
		t.Fatalf("a copy of the running directory does not open: %v", err)
	}
	defer e2.Close()
	if e2.idByURL[p.URL] == 0 {
		t.Fatal("the visit before the refused one is not in the copy")
	}
	if e2.idByURL[long] != 0 {
		t.Fatal("the refused URL has a page row in the copy")
	}
}

func TestDiscoverResources(t *testing.T) {
	c, e := testWorld(t)
	e.RegisterUser(1, "alice")
	leaves := c.Leaves()
	n := 0
	for _, pid := range c.LeafPages[leaves[0].ID] {
		if p := c.Page(pid); !p.Front && n < 6 {
			e.AddBookmark(1, p.URL, "/Focus", tBase)
			n++
		}
	}
	n = 0
	for _, pid := range c.LeafPages[leaves[1].ID] {
		if p := c.Page(pid); !p.Front && n < 6 {
			e.AddBookmark(1, p.URL, "/Else", tBase)
			n++
		}
	}
	e.DrainBackground()
	e.RetrainClassifiers()

	found := e.Discover(1, "/Focus", 60, 5)
	if len(found) == 0 {
		t.Fatal("Discover returned nothing")
	}
	// Discovered pages should hit the focus topic far above the corpus
	// base rate (1 leaf of 6 ≈ 17%).
	on := 0
	for _, f := range found {
		if id, ok := c.ByURL[f.URL]; ok && c.Page(id).Topic == leaves[0].ID {
			on++
		}
	}
	if frac := float64(on) / float64(len(found)); frac < 0.35 {
		t.Fatalf("discovery on-topic fraction %.2f (%d/%d) below 2x base rate", frac, on, len(found))
	}
}

func TestEngineConfigValidation(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("Open without Dir accepted")
	}
	if _, err := Open(Config{Dir: t.TempDir()}); err == nil {
		t.Fatal("Open without Source accepted")
	}
}
