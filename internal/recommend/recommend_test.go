package recommend

import (
	"fmt"
	"math/rand"
	"testing"

	"memex/internal/profile"
	"memex/internal/text"
	"memex/internal/themes"
)

// community builds: two interest groups (topics 0 and 1); group members
// visit mostly their topic's pages. Pages 0xx belong to topic 0, 1xx to
// topic 1. Each user visits a random subset, so URL overlap within a group
// is low even though interests align — the regime where profile similarity
// shines.
func community(t testing.TB, users, pagesPerTopic, visitsPerUser int) (*Engine, map[int64]int) {
	d := text.NewDict()
	rng := rand.New(rand.NewSource(31))

	pageTopic := map[int64]int{}
	pageVec := map[int64]text.Vector{}
	for topic := 0; topic < 2; topic++ {
		for p := 0; p < pagesPerTopic; p++ {
			id := int64(topic*1000 + p)
			tf := map[string]int{}
			for w := 0; w < 15; w++ {
				tf[fmt.Sprintf("g%dword%d", topic, rng.Intn(12))]++
			}
			pageTopic[id] = topic
			pageVec[id] = text.VectorFromCounts(d, tf).Normalize()
		}
	}

	// Taxonomy from a few seed folders.
	var ufs []themes.UserFolder
	for u := 1; u <= 4; u++ {
		for topic := 0; topic < 2; topic++ {
			uf := themes.UserFolder{User: int64(u), Path: fmt.Sprintf("/g%d", topic)}
			for p := 0; p < 6; p++ {
				id := int64(topic*1000 + p)
				uf.Docs = append(uf.Docs, themes.DocVec{ID: id, Vec: pageVec[id]})
			}
			ufs = append(ufs, uf)
		}
	}
	tax := themes.Discover(ufs, d, themes.Options{Seed: 32})

	userTopic := map[int64]int{}
	profiles := map[int64]profile.Profile{}
	visited := map[int64]map[int64]bool{}
	for u := 1; u <= users; u++ {
		topic := (u - 1) % 2
		userTopic[int64(u)] = topic
		vs := map[int64]bool{}
		var docs []themes.DocVec
		for len(vs) < visitsPerUser {
			id := int64(topic*1000 + rng.Intn(pagesPerTopic))
			if !vs[id] {
				vs[id] = true
				docs = append(docs, themes.DocVec{ID: id, Vec: pageVec[id]})
			}
		}
		visited[int64(u)] = vs
		profiles[int64(u)] = profile.Build(int64(u), docs, tax)
	}
	return NewEngine(profiles, visited), userTopic
}

func TestPeersByProfileFindInterestGroup(t *testing.T) {
	e, userTopic := community(t, 20, 200, 15)
	peers := e.Peers(1, ByProfile, 5)
	if len(peers) != 5 {
		t.Fatalf("peers = %d", len(peers))
	}
	for _, p := range peers {
		if userTopic[p.User] != userTopic[1] {
			t.Fatalf("profile peer %d from wrong interest group", p.User)
		}
	}
}

func TestProfileBeatsURLOverlapAtPeerRanking(t *testing.T) {
	// With sparse visits over a large page pool, URL overlap within the
	// interest group is mostly zero, so Jaccard cannot separate groups.
	e, userTopic := community(t, 30, 400, 10)
	agreeProfile, agreeURL, n := 0, 0, 0
	for u := int64(1); u <= 30; u++ {
		pp := e.Peers(u, ByProfile, 3)
		pu := e.Peers(u, ByURLOverlap, 3)
		for _, p := range pp {
			if userTopic[p.User] == userTopic[u] {
				agreeProfile++
			}
		}
		for _, p := range pu {
			if userTopic[p.User] == userTopic[u] {
				agreeURL++
			}
		}
		n += 3
	}
	pAcc := float64(agreeProfile) / float64(n)
	uAcc := float64(agreeURL) / float64(n)
	t.Logf("peer accuracy: profile=%.3f url=%.3f", pAcc, uAcc)
	if pAcc <= uAcc {
		t.Fatalf("profile peer ranking (%.3f) not better than URL overlap (%.3f)", pAcc, uAcc)
	}
	if pAcc < 0.95 {
		t.Fatalf("profile peer accuracy %.3f too low", pAcc)
	}
}

func TestRecommendExcludesSeenAndStaysOnTopic(t *testing.T) {
	e, userTopic := community(t, 20, 200, 15)
	rec := e.Recommend(1, ByProfile, 5, 10)
	if len(rec) == 0 {
		t.Fatal("no recommendations")
	}
	for _, r := range rec {
		if e.visited[1][r] {
			t.Fatalf("recommended already-seen page %d", r)
		}
		topic := 0
		if r >= 1000 {
			topic = 1
		}
		if topic != userTopic[1] {
			t.Fatalf("recommended off-interest page %d", r)
		}
	}
}

func TestRecommendUnknownUser(t *testing.T) {
	e, _ := community(t, 5, 50, 5)
	if rec := e.Recommend(999, ByProfile, 3, 5); len(rec) != 0 {
		t.Fatalf("recommendations for unknown user: %v", rec)
	}
}

func TestPageScoresBias(t *testing.T) {
	e, _ := community(t, 10, 100, 10)
	base := e.Recommend(1, ByProfile, 5, 1)
	if len(base) != 1 {
		t.Fatal("no baseline recommendation")
	}
	// Boost a different unseen page massively; it must take over the top slot.
	var target int64 = -1
	all := e.Recommend(1, ByProfile, 5, 50)
	for _, p := range all {
		if p != base[0] {
			target = p
			break
		}
	}
	if target < 0 {
		t.Skip("only one candidate page")
	}
	e.SetPageScores(map[int64]float64{target: 1000})
	boosted := e.Recommend(1, ByProfile, 5, 1)
	if boosted[0] != target {
		t.Fatalf("page score did not bias ranking: got %d want %d", boosted[0], target)
	}
}

func TestPrecisionRecall(t *testing.T) {
	rel := map[int64]bool{1: true, 2: true, 3: true, 4: true}
	rec := []int64{1, 2, 99}
	if p := PrecisionAtK(rec, rel); p < 0.66 || p > 0.67 {
		t.Fatalf("precision = %v", p)
	}
	if PrecisionAtK(nil, rel) != 0 {
		t.Fatal("empty-input metrics not 0")
	}
}

func BenchmarkRecommend(b *testing.B) {
	e, _ := community(b, 50, 500, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Recommend(int64(i%50+1), ByProfile, 10, 10)
	}
}
