package sim

import (
	"math"
	"testing"
	"time"

	"memex/internal/webcorpus"
)

func tinyWorld(t *testing.T) (*webcorpus.Corpus, *Trace) {
	t.Helper()
	c := webcorpus.Generate(webcorpus.Config{Seed: 1, TopTopics: 3, SubPerTopic: 2, PagesPerLeaf: 15})
	tr := Simulate(c, Config{Seed: 2, Users: 10, Days: 5})
	return c, tr
}

func TestSimulateDeterministic(t *testing.T) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 1, TopTopics: 2, SubPerTopic: 2, PagesPerLeaf: 10})
	a := Simulate(c, Config{Seed: 7, Users: 5, Days: 3})
	b := Simulate(c, Config{Seed: 7, Users: 5, Days: 3})
	if len(a.Visits) != len(b.Visits) || len(a.Bookmarks) != len(b.Bookmarks) {
		t.Fatalf("traces differ: %d/%d visits, %d/%d bookmarks",
			len(a.Visits), len(b.Visits), len(a.Bookmarks), len(b.Bookmarks))
	}
	for i := range a.Visits {
		if a.Visits[i] != b.Visits[i] {
			t.Fatalf("visit %d differs", i)
		}
	}
}

func TestTraceShape(t *testing.T) {
	c, tr := tinyWorld(t)
	if len(tr.Users) != 10 {
		t.Fatalf("users = %d", len(tr.Users))
	}
	if len(tr.Visits) == 0 {
		t.Fatal("no visits simulated")
	}
	if len(tr.Bookmarks) == 0 {
		t.Fatal("no bookmarks simulated")
	}
	// Visits time-ordered.
	for i := 1; i < len(tr.Visits); i++ {
		if tr.Visits[i].Time.Before(tr.Visits[i-1].Time) {
			t.Fatal("visits not time-ordered")
		}
	}
	// All page ids valid.
	for _, v := range tr.Visits {
		if c.Page(v.Page) == nil {
			t.Fatalf("visit references unknown page %d", v.Page)
		}
	}
}

func TestInterestsNormalized(t *testing.T) {
	_, tr := tinyWorld(t)
	for _, u := range tr.Users {
		var sum float64
		for _, w := range u.Interests {
			sum += w
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("user %d interests sum to %v", u.ID, sum)
		}
		if len(u.FolderOf) != len(u.Interests) {
			t.Fatalf("user %d folder map incomplete", u.ID)
		}
	}
}

func TestVisitsRespectInterests(t *testing.T) {
	c, tr := tinyWorld(t)
	// The majority of a user's visited pages should fall in topics they are
	// interested in (walks can drift off-topic via links).
	for _, u := range tr.Users {
		visits := tr.VisitsOf(u.ID)
		if len(visits) < 10 {
			continue
		}
		on := 0
		for _, v := range visits {
			if _, ok := u.Interests[c.Page(v.Page).Topic]; ok {
				on++
			}
		}
		frac := float64(on) / float64(len(visits))
		if frac < 0.5 {
			t.Fatalf("user %d only %.2f of visits on interest topics", u.ID, frac)
		}
	}
}

func TestBookmarksLandInOwnersFolders(t *testing.T) {
	c, tr := tinyWorld(t)
	for _, b := range tr.Bookmarks {
		u := tr.UserByID(b.User)
		if u == nil {
			t.Fatalf("bookmark by unknown user %d", b.User)
		}
		want, ok := u.FolderOf[c.Page(b.Page).Topic]
		if !ok {
			t.Fatalf("bookmark for topic outside user %d interests", b.User)
		}
		if b.Folder != want {
			t.Fatalf("bookmark folder %q, want %q", b.Folder, want)
		}
	}
}

func TestCoarseAndFineUsersExist(t *testing.T) {
	_, tr := tinyWorld(t)
	var coarse, fine int
	for _, u := range tr.Users {
		if u.Coarse {
			coarse++
		} else {
			fine++
		}
	}
	if coarse == 0 || fine == 0 {
		t.Fatalf("granularity mix degenerate: %d coarse, %d fine", coarse, fine)
	}
}

func TestReferrerChains(t *testing.T) {
	c, tr := tinyWorld(t)
	// When a visit has a referrer, the referrer page must link to it.
	checked := 0
	for _, v := range tr.Visits {
		if v.Referrer == 0 {
			continue
		}
		ref := c.Page(v.Referrer)
		found := false
		for _, l := range ref.Links {
			if l == v.Page {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("visit %d→%d has no corresponding link", v.Referrer, v.Page)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no link-following visits simulated")
	}
}

func TestEraTimestamps(t *testing.T) {
	_, tr := tinyWorld(t)
	lo := time.Date(2000, 5, 15, 0, 0, 0, 0, time.UTC)
	hi := lo.Add(40 * 24 * time.Hour)
	for _, v := range tr.Visits {
		if v.Time.Before(lo) || v.Time.After(hi) {
			t.Fatalf("visit time %v outside simulated window", v.Time)
		}
	}
}

// TestInterestWeightsRepeat replays one simulation and wants every
// interest weight bit-identical: a sum taken in map order differs in its
// last bits from run to run.
func TestInterestWeightsRepeat(t *testing.T) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 1, TopTopics: 4, SubPerTopic: 4, PagesPerLeaf: 5})
	cfg := Config{Seed: 2, Users: 50, Days: 1}
	first := Simulate(c, cfg)
	for r := 1; r < 20; r++ {
		tr := Simulate(c, cfg)
		for i, u := range tr.Users {
			for id, w := range u.Interests {
				if want := first.Users[i].Interests[id]; math.Float64bits(w) != math.Float64bits(want) {
					t.Fatalf("replay %d: user %d topic %d weight %v, first run %v", r, u.ID, id, w, want)
				}
			}
		}
	}
}

var traceSink *Trace

// BenchmarkSimulate runs the benchmark's community (bench/workloads.go:
// 50 users, 16 days, seed 2 as memex.GenerateWorld derives it from world
// seed 1) over the benchmark's Web.
func BenchmarkSimulate(b *testing.B) {
	b.ReportAllocs()
	c := webcorpus.Generate(webcorpus.Config{Seed: 1, PagesPerLeaf: 800})
	cfg := Config{Seed: 2, Users: 50, Days: 16}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traceSink = Simulate(c, cfg)
	}
}
