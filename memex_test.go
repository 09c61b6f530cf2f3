package memex

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"memex/internal/core"
	"memex/internal/kvstore"
)

// worldFor builds a small deterministic world and engine for API tests.
func worldFor(t *testing.T) (*World, *Memex) {
	t.Helper()
	world := GenerateWorld(WorldConfig{Seed: 99})
	now := world.Trace.Visits[len(world.Trace.Visits)-1].Time.Add(time.Hour)
	m, err := Open(Config{
		Dir:    t.TempDir(),
		Source: world.Source(),
		Now:    func() time.Time { return now },
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	return world, m
}

func TestPublicAPIEndToEnd(t *testing.T) {
	world, m := worldFor(t)
	n, err := m.ReplayTrace(world, 800)
	if err != nil {
		t.Fatalf("ReplayTrace: %v", err)
	}
	if n != 800 {
		t.Fatalf("replayed %d visits", n)
	}
	m.DrainBackground()
	m.RetrainClassifiers()
	st := m.RebuildThemes()
	if st.Themes == 0 {
		t.Fatal("no themes from replayed community")
	}

	status := m.Status()
	if status.Visits != 800 || status.PagesIndexed == 0 {
		t.Fatalf("Status = %+v", status)
	}

	// Search via a topical query derived from the corpus.
	leaf := world.Corpus.Leaves()[0]
	top := world.Corpus.Topics[leaf.Parent]
	hits := m.Search(0, top.Name+"_"+leaf.Name+"01", 5)
	if len(hits) == 0 {
		t.Fatal("no public-API search hits")
	}

	// Profiles for replayed users.
	found := false
	for _, u := range world.Trace.Users[:10] {
		if p := m.Profile(u.ID); p != nil && len(p.Weights) > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no user has a profile after replay")
	}
}

func TestPublicAPIOverHTTP(t *testing.T) {
	world, m := worldFor(t)
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)

	if err := c.Register(1, "tester"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	page := world.Corpus.Page(world.Corpus.LeafPages[world.Corpus.Leaves()[0].ID][0])
	if err := c.Visit(1, page.URL, "", time.Date(2000, 6, 1, 12, 0, 0, 0, time.UTC), "community"); err != nil {
		t.Fatalf("Visit: %v", err)
	}
	m.DrainBackground()
	st, err := c.Status()
	if err != nil || st.Visits != 1 {
		t.Fatalf("Status over HTTP: %+v err=%v", st, err)
	}
}

func TestWorldDeterminism(t *testing.T) {
	a := GenerateWorld(WorldConfig{Seed: 5})
	b := GenerateWorld(WorldConfig{Seed: 5})
	if len(a.Corpus.Pages) != len(b.Corpus.Pages) || len(a.Trace.Visits) != len(b.Trace.Visits) {
		t.Fatal("GenerateWorld not deterministic")
	}
	if len(a.Trace.Visits) == 0 {
		t.Fatal("empty trace")
	}
}

func TestWorldSourceResolvesLinks(t *testing.T) {
	world := GenerateWorld(WorldConfig{Seed: 6})
	src := world.Source()
	p := world.Corpus.Page(1)
	content, ok := src.Lookup(p.URL)
	if !ok || content.Title == "" {
		t.Fatal("Lookup failed")
	}
	if len(content.Links) != len(p.Links) {
		t.Fatalf("links: %d vs %d", len(content.Links), len(p.Links))
	}
	for _, l := range content.Links {
		if _, ok := src.Lookup(l); !ok {
			t.Fatalf("link %q unresolvable", l)
		}
	}
	if _, ok := src.Lookup("http://unknown.example/"); ok {
		t.Fatal("unknown URL resolved")
	}
}

func TestBookmarkFlowThroughFacade(t *testing.T) {
	world, m := worldFor(t)
	m.RegisterUser(1, "alice")
	var content []string
	for _, pid := range world.Corpus.LeafPages[world.Corpus.Leaves()[0].ID] {
		if p := world.Corpus.Page(pid); !p.Front {
			content = append(content, p.URL)
		}
	}
	at := time.Date(2000, 6, 1, 10, 0, 0, 0, time.UTC)
	for i, url := range content[:4] {
		if err := m.AddBookmark(1, url, "/Research", at.Add(time.Duration(i)*time.Minute)); err != nil {
			t.Fatalf("AddBookmark: %v", err)
		}
	}
	m.DrainBackground()

	var buf bytes.Buffer
	if err := m.ExportBookmarks(1, &buf); err != nil {
		t.Fatalf("Export: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "Research") || !strings.Contains(out, content[0]) {
		t.Fatal("exported bookmarks incomplete")
	}
}

// TestZeroConfigIsTheProduct: core's zero Config and the facade open the
// engine memexd runs, group commit over a 4096-event queue, and Durable
// asks both for an fsync per commit.
func TestZeroConfigIsTheProduct(t *testing.T) {
	source := GenerateWorld(WorldConfig{Seed: 99}).Source()
	for _, tc := range []struct {
		durable bool
		want    kvstore.SyncPolicy
	}{{false, kvstore.SyncGroup}, {true, kvstore.SyncAlways}} {
		e, err := core.Open(core.Config{Dir: t.TempDir(), Source: source, Durable: tc.durable})
		if err != nil {
			t.Fatal(err)
		}
		m, err := Open(Config{Dir: t.TempDir(), Source: source, Durable: tc.durable})
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range []*core.Engine{e, m.Engine} {
			if policy, qcap := eng.Status().KV.Sync, eng.Pressure().QueueCap; policy != tc.want || qcap != 4096 {
				t.Errorf("Durable %v: sync policy %v, queue cap %d; want %v and 4096", tc.durable, policy, qcap, tc.want)
			}
		}
		e.Close()
		m.Close()
	}
}
