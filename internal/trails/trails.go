// Package trails implements the trail tab of Figure 2: segmenting surf
// streams into sessions, building per-session trail graphs, and replaying
// the recent hypertext context around a topic — "what trails was I
// following when I was last surfing about classical music?" — for one user
// or for the whole community. Popular pages in or near the community trail
// graph are surfaced via HITS authority scores over the trail
// neighbourhood.
package trails

import (
	"math"
	"sort"
	"time"

	"memex/internal/graph"
)

// Visit is one page-view event (mirrors the server's event log rows).
type Visit struct {
	User     int64
	Page     int64
	Referrer int64
	Time     time.Time
}

// Session is a maximal run of one user's visits with no gap exceeding the
// segmentation threshold.
type Session struct {
	User   int64
	Start  time.Time
	End    time.Time
	Visits []Visit
}

// DefaultGap is the classic 30-minute session-segmentation threshold.
const DefaultGap = 30 * time.Minute

// Segment splits visits into per-user sessions using the gap threshold
// (gap <= 0 takes DefaultGap). It needs each user's visits in time order;
// users may come one after another or interleave. Sessions come back by
// (start, user).
func Segment(visits []Visit, gap time.Duration) []Session {
	if gap <= 0 {
		gap = DefaultGap
	}
	open := map[int64]*Session{}
	var done []Session
	for _, v := range visits {
		s := open[v.User]
		if s != nil && v.Time.Sub(s.End) > gap {
			done = append(done, *s)
			s = nil
		}
		if s == nil {
			s = &Session{User: v.User, Start: v.Time}
			open[v.User] = s
		}
		s.Visits = append(s.Visits, v)
		s.End = v.Time
	}
	for _, s := range open {
		done = append(done, *s)
	}
	sort.Slice(done, func(i, j int) bool {
		if !done[i].Start.Equal(done[j].Start) {
			return done[i].Start.Before(done[j].Start)
		}
		return done[i].User < done[j].User
	})
	return done
}

// TrailGraph is the replayable context of a set of sessions: the visited
// pages with the transitions taken between them.
type TrailGraph struct {
	// Nodes are page ids ordered by descending weight.
	Nodes []int64
	// Edges are (from, to) transitions with traversal counts.
	Edges map[[2]int64]int
	// Weight scores each node by recency-decayed visit mass.
	Weight map[int64]float64
	// LastVisit records the most recent visit time per page.
	LastVisit map[int64]time.Time
}

// Build assembles a trail graph from sessions. Weights decay exponentially
// with age relative to `now` using halfLife (<=0 takes 7 days).
func Build(sessions []Session, now time.Time, halfLife time.Duration) *TrailGraph {
	if halfLife <= 0 {
		halfLife = 7 * 24 * time.Hour
	}
	tg := &TrailGraph{
		Edges:     map[[2]int64]int{},
		Weight:    map[int64]float64{},
		LastVisit: map[int64]time.Time{},
	}
	for _, s := range sessions {
		var prev int64
		for _, v := range s.Visits {
			age := now.Sub(v.Time)
			if age < 0 {
				age = 0
			}
			decay := halfLifeDecay(age, halfLife)
			tg.Weight[v.Page] += decay
			if v.Time.After(tg.LastVisit[v.Page]) {
				tg.LastVisit[v.Page] = v.Time
			}
			from := v.Referrer
			if from == 0 {
				from = prev
			}
			if from != 0 && from != v.Page {
				tg.Edges[[2]int64{from, v.Page}]++
			}
			prev = v.Page
		}
	}
	tg.Nodes = make([]int64, 0, len(tg.Weight))
	for p := range tg.Weight {
		tg.Nodes = append(tg.Nodes, p)
	}
	sort.Slice(tg.Nodes, func(i, j int) bool {
		wi, wj := tg.Weight[tg.Nodes[i]], tg.Weight[tg.Nodes[j]]
		if wi != wj {
			return wi > wj
		}
		return tg.Nodes[i] < tg.Nodes[j]
	})
	return tg
}

func halfLifeDecay(age, halfLife time.Duration) float64 {
	return math.Exp2(-float64(age) / float64(halfLife))
}

// Filter describes which visits make it into a replayed context.
type Filter struct {
	// User restricts to one user's trails (0 = whole community).
	User int64
	// Topic, when non-nil, keeps only visits whose page passes the
	// predicate (the classifier's topic test in the full system).
	Topic func(page int64) bool
	// Since drops visits before this instant (zero = no limit).
	Since time.Time
}

// Replay builds the trail graph for a topical context: visits are filtered
// by user, time window and topic predicate, re-segmented, and assembled
// into a recency-weighted trail graph. This recreates "the Web
// neighbourhood I was surfing the last time I was looking for X".
func Replay(visits []Visit, f Filter, gap time.Duration, now time.Time, halfLife time.Duration) *TrailGraph {
	var kept []Visit
	for _, v := range visits {
		if f.User != 0 && v.User != f.User {
			continue
		}
		if !f.Since.IsZero() && v.Time.Before(f.Since) {
			continue
		}
		if f.Topic != nil && !f.Topic(v.Page) {
			continue
		}
		kept = append(kept, v)
	}
	return Build(Segment(kept, gap), now, halfLife)
}

// Popular returns the k most authoritative pages in or near the trail
// graph: the trail nodes are expanded radius-1 into the web graph behind
// g, HITS runs on the induced subgraph, and authorities are returned in
// descending order. This answers "are there popular sites related to my
// experience that appeared recently?". g is any adjacency source — the
// engine passes a snapshot-pinned view over its versioned link records,
// so the whole ranking reads one frozen epoch of the link graph.
func Popular(tg *TrailGraph, g graph.AdjacencySource, k int) []int64 {
	if len(tg.Nodes) == 0 {
		return nil
	}
	neighborhood := graph.ExpandFrom(g, tg.Nodes, 1, 4*len(tg.Nodes)+64)
	if len(neighborhood) == 0 {
		// Trail pages unknown to the web graph: fall back to trail weight.
		if k > len(tg.Nodes) {
			k = len(tg.Nodes)
		}
		return append([]int64(nil), tg.Nodes[:k]...)
	}
	_, auths := graph.HITSOver(g, neighborhood, 20)
	return auths.Top(k)
}

// Transitions returns the trail edges sorted by descending traversal count.
func (tg *TrailGraph) Transitions() [][2]int64 {
	out := make([][2]int64, 0, len(tg.Edges))
	for e := range tg.Edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		ci, cj := tg.Edges[out[i]], tg.Edges[out[j]]
		if ci != cj {
			return ci > cj
		}
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Top returns the k heaviest context pages.
func (tg *TrailGraph) Top(k int) []int64 {
	if k > len(tg.Nodes) {
		k = len(tg.Nodes)
	}
	return append([]int64(nil), tg.Nodes[:k]...)
}
