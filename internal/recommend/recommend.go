// Package recommend implements Memex's collaborative recommendation over
// theme profiles (§4, [10]): rank peers by profile similarity, then
// recommend pages the nearest peers valued that the target user has not
// seen. The URL-overlap peer ranking is retained as the baseline that
// experiment E7 compares against.
package recommend

import (
	"sort"

	"memex/internal/profile"
)

// PeerScore is one candidate peer with a similarity score.
type PeerScore struct {
	User  int64
	Score float64
}

// Method selects how peers are ranked.
type Method int

const (
	// ByProfile ranks peers by theme-profile cosine (the Memex way).
	ByProfile Method = iota
	// ByURLOverlap ranks peers by Jaccard overlap of visited URL sets
	// (the baseline the paper dismisses).
	ByURLOverlap
)

// Engine holds the community state needed for recommendations.
type Engine struct {
	profiles map[int64]profile.Profile
	visited  map[int64]map[int64]bool // user → page set
	// pageScore lets callers weight candidate pages (e.g. by community
	// visit counts); nil means uniform.
	pageScore map[int64]float64
}

// NewEngine builds an engine from per-user profiles and visit sets.
func NewEngine(profiles map[int64]profile.Profile, visited map[int64]map[int64]bool) *Engine {
	return &Engine{profiles: profiles, visited: visited}
}

// SetPageScores installs optional global page weights.
func (e *Engine) SetPageScores(s map[int64]float64) { e.pageScore = s }

// Peers ranks all other users by similarity to user under the method.
func (e *Engine) Peers(user int64, method Method, k int) []PeerScore {
	var out []PeerScore
	switch method {
	case ByURLOverlap:
		mine := e.visited[user]
		for other, pages := range e.visited {
			if other == user {
				continue
			}
			out = append(out, PeerScore{other, profile.URLJaccard(mine, pages)})
		}
	default:
		mine, ok := e.profiles[user]
		if !ok {
			return nil
		}
		for other, p := range e.profiles {
			if other == user {
				continue
			}
			out = append(out, PeerScore{other, profile.Similarity(mine, p)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].User < out[j].User
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// Recommend returns up to k pages for user: pages visited by the nPeers
// most similar peers, unseen by the user, scored by peer-similarity-
// weighted visit mass (times the optional page weight).
func (e *Engine) Recommend(user int64, method Method, nPeers, k int) []int64 {
	peers := e.Peers(user, method, nPeers)
	mine := e.visited[user]
	mass := map[int64]float64{}
	for _, ps := range peers {
		if ps.Score <= 0 {
			continue
		}
		for page := range e.visited[ps.User] {
			if mine[page] {
				continue
			}
			w := ps.Score
			if e.pageScore != nil {
				if pw, ok := e.pageScore[page]; ok {
					w *= pw
				}
			}
			mass[page] += w
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
	if k > 0 && k < len(ids) {
		ids = ids[:k]
	}
	return ids
}

// PrecisionAtK evaluates recommendations against a held-out relevant set:
// |rec ∩ relevant| / |rec|.
func PrecisionAtK(rec []int64, relevant map[int64]bool) float64 {
	if len(rec) == 0 {
		return 0
	}
	hit := 0
	for _, r := range rec {
		if relevant[r] {
			hit++
		}
	}
	return float64(hit) / float64(len(rec))
}
