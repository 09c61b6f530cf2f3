// Package sim generates the browsing volunteers the paper had and we do
// not: a population of surfers with skewed topical interests who random-walk
// the synthetic Web in time-stamped sessions, bookmarking some pages into
// per-user folder trees. Users differ in folder granularity — some file
// everything under one coarse folder per top-level topic, others keep a
// folder per leaf topic with idiosyncratic names — which is exactly the
// diversity Memex's theme discovery must reconcile (Figure 4, experiment E4).
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"memex/internal/webcorpus"
)

// Config tunes the simulation. Zero values take documented defaults.
type Config struct {
	Seed             int64
	Users            int     // default 50
	Days             int     // simulated period (default 30)
	SessionsPerDay   float64 // mean sessions per user per day (default 1.5)
	VisitsPerSession int     // mean page visits per session (default 8)
	InterestTopics   int     // leaf topics a user cares about (default 4)
	// CommunityFocus skews interests: with this probability a user's topics
	// come from the community's few hot topics (default 0.6).
	CommunityFocus float64
	HotTopics      int     // number of community hot topics (default 4)
	BookmarkProb   float64 // chance a visited page is bookmarked (default 0.12)
	FollowProb     float64 // continue walk via link vs jump (default 0.7)
}

// coarseUserFrac is the fraction of users with one folder per top topic.
const coarseUserFrac = 0.4

// simStart is the first simulated instant, in the paper's era.
var simStart = time.Date(2000, 5, 15, 9, 0, 0, 0, time.UTC)

func (c *Config) defaults() {
	if c.Users == 0 {
		c.Users = 50
	}
	if c.Days == 0 {
		c.Days = 30
	}
	if c.SessionsPerDay == 0 {
		c.SessionsPerDay = 1.5
	}
	if c.VisitsPerSession == 0 {
		c.VisitsPerSession = 8
	}
	if c.InterestTopics == 0 {
		c.InterestTopics = 4
	}
	if c.CommunityFocus == 0 {
		c.CommunityFocus = 0.6
	}
	if c.HotTopics == 0 {
		c.HotTopics = 4
	}
	if c.BookmarkProb == 0 {
		c.BookmarkProb = 0.12
	}
	if c.FollowProb == 0 {
		c.FollowProb = 0.7
	}
}

// User is one simulated surfer.
type User struct {
	ID   int64
	Name string
	// Interests maps leaf topic id → weight (sums to 1).
	Interests map[int]float64
	// Coarse users file bookmarks under top-level topic folders.
	Coarse bool
	// FolderOf maps leaf topic id → the folder path this user files that
	// topic's bookmarks under.
	FolderOf map[int]string
	// topics holds Interests' keys in increasing order, the order in
	// which weights are summed and drawn, so a seed gives the same bits.
	topics []int
}

// Visit is one page view event.
type Visit struct {
	User     int64
	Page     int64
	Referrer int64 // 0 when the session started fresh
	Time     time.Time
	Topic    int // ground-truth leaf topic of the *intent* of the session
}

// Bookmark is a deliberate filing of a page into a folder.
type Bookmark struct {
	User   int64
	Page   int64
	Folder string
	Time   time.Time
}

// Trace is the simulated browsing history of the whole community.
type Trace struct {
	Cfg       Config
	Users     []User
	Visits    []Visit // time-ordered
	Bookmarks []Bookmark
}

// Simulate runs the surfer population over the corpus.
func Simulate(c *webcorpus.Corpus, cfg Config) *Trace {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := &Trace{Cfg: cfg}

	leaves := c.Leaves()
	// Community hot topics: the first HotTopics leaves of a shuffled order.
	hot := rng.Perm(len(leaves))[:min(cfg.HotTopics, len(leaves))]

	for u := 0; u < cfg.Users; u++ {
		user := User{
			ID:        int64(u + 1),
			Name:      fmt.Sprintf("user%02d", u+1),
			Interests: map[int]float64{},
			Coarse:    rng.Float64() < coarseUserFrac,
			FolderOf:  map[int]string{},
		}
		// Pick interest topics: hot with prob CommunityFocus, else uniform.
		for len(user.Interests) < min(cfg.InterestTopics, len(leaves)) {
			var leaf webcorpus.Topic
			if rng.Float64() < cfg.CommunityFocus {
				leaf = leaves[hot[rng.Intn(len(hot))]]
			} else {
				leaf = leaves[rng.Intn(len(leaves))]
			}
			if _, ok := user.Interests[leaf.ID]; !ok {
				user.Interests[leaf.ID] = 0.5 + rng.Float64()
				user.topics = append(user.topics, leaf.ID)
			}
		}
		sort.Ints(user.topics)
		normalizeInterests(&user)
		// Folder layout: coarse users group by top topic; fine users get a
		// folder per leaf, with a personal naming quirk.
		for _, tid := range user.topics {
			leaf := c.Topics[tid]
			top := c.Topics[leaf.Parent]
			if user.Coarse {
				user.FolderOf[tid] = fmt.Sprintf("/%s", top.Name)
			} else {
				user.FolderOf[tid] = fmt.Sprintf("/%s/my-%s", top.Name, leaf.Name)
			}
		}
		tr.Users = append(tr.Users, user)
	}

	// Sessions: Poisson-ish arrival per user per day.
	for day := 0; day < cfg.Days; day++ {
		for ui := range tr.Users {
			user := &tr.Users[ui]
			nSessions := poisson(rng, cfg.SessionsPerDay)
			for s := 0; s < nSessions; s++ {
				start := simStart.
					Add(time.Duration(day) * 24 * time.Hour).
					Add(time.Duration(rng.Intn(14*3600)) * time.Second)
				simulateSession(c, cfg, rng, tr, user, start)
			}
		}
	}
	sort.SliceStable(tr.Visits, func(i, j int) bool { return tr.Visits[i].Time.Before(tr.Visits[j].Time) })
	sort.SliceStable(tr.Bookmarks, func(i, j int) bool { return tr.Bookmarks[i].Time.Before(tr.Bookmarks[j].Time) })
	return tr
}

// simulateSession walks the link graph from a topical entry page.
func simulateSession(c *webcorpus.Corpus, cfg Config, rng *rand.Rand, tr *Trace, user *User, start time.Time) {
	topic := samplTopic(rng, user)
	pages := c.LeafPages[topic]
	if len(pages) == 0 {
		return
	}
	cur := pages[rng.Intn(len(pages))]
	var ref int64
	now := start
	n := 1 + poisson(rng, float64(cfg.VisitsPerSession))
	for v := 0; v < n; v++ {
		tr.Visits = append(tr.Visits, Visit{
			User: user.ID, Page: cur, Referrer: ref, Time: now, Topic: topic,
		})
		if rng.Float64() < cfg.BookmarkProb {
			if folder, ok := user.FolderOf[c.Page(cur).Topic]; ok {
				tr.Bookmarks = append(tr.Bookmarks, Bookmark{
					User: user.ID, Page: cur, Folder: folder, Time: now,
				})
			}
		}
		// Next hop: follow an on-topic link when possible, else jump back
		// to the topic's pages.
		next := int64(0)
		if rng.Float64() < cfg.FollowProb {
			links := c.Page(cur).Links
			// Prefer links staying on topic (surfers follow anchors that
			// look relevant).
			var onTopic []int64
			for _, l := range links {
				if c.Page(l).Topic == topic {
					onTopic = append(onTopic, l)
				}
			}
			if len(onTopic) > 0 && rng.Float64() < 0.8 {
				next = onTopic[rng.Intn(len(onTopic))]
			} else if len(links) > 0 {
				next = links[rng.Intn(len(links))]
			}
		}
		if next == 0 {
			next = pages[rng.Intn(len(pages))]
			ref = 0
		} else {
			ref = cur
		}
		cur = next
		now = now.Add(time.Duration(20+rng.Intn(160)) * time.Second)
	}
}

// samplTopic draws a topic id proportional to interest weight.
func samplTopic(rng *rand.Rand, user *User) int {
	r := rng.Float64()
	var acc float64
	for _, id := range user.topics {
		acc += user.Interests[id]
		if r <= acc {
			return id
		}
	}
	return user.topics[len(user.topics)-1]
}

// normalizeInterests scales a user's weights to sum to 1.
func normalizeInterests(user *User) {
	var sum float64
	for _, id := range user.topics {
		sum += user.Interests[id]
	}
	if sum == 0 {
		return
	}
	for _, id := range user.topics {
		user.Interests[id] /= sum
	}
}

// poisson draws a Poisson variate with mean lambda (Knuth's method; fine
// for small lambda).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}

// User lookup helpers.

// UserByID returns the user with the given id, or nil.
func (tr *Trace) UserByID(id int64) *User {
	for i := range tr.Users {
		if tr.Users[i].ID == id {
			return &tr.Users[i]
		}
	}
	return nil
}

// VisitsOf returns the time-ordered visits of one user.
func (tr *Trace) VisitsOf(user int64) []Visit {
	var out []Visit
	for _, v := range tr.Visits {
		if v.User == user {
			out = append(out, v)
		}
	}
	return out
}
