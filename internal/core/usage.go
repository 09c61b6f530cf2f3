package core

import (
	"sort"
	"time"

	"memex/internal/rdbms"
)

// UsageSlice is one topic's share of a user's browsing (§1: "How is my ISP
// bill divided into access for work, travel, news, hobby and
// entertainment?").
type UsageSlice struct {
	Folder string
	Visits int
	// Time is the estimated dwell time: gaps between consecutive visits
	// within a session, attributed to the earlier page, capped at 30m.
	Time time.Duration
	// Share is the fraction of the user's attributed time.
	Share float64
}

// UsageBreakdown attributes the user's visits to their folder topics via
// the trained classifier (unclassifiable pages land in "/unfiled") and
// returns slices in descending time share.
func (e *Engine) UsageBreakdown(user int64, since time.Time) []UsageSlice {
	e.mu.RLock()
	model := e.models[user]
	e.mu.RUnlock()

	type rec struct {
		page int64
		at   time.Time
	}
	var visits []rec
	// The since bound is pushed into the query as a predicate (and the
	// user index drives), instead of scanning the user's whole history
	// and filtering here.
	windowQuery(e.visits, user, since, time.Time{}).Each(func(r rdbms.Row) bool {
		visits = append(visits, rec{r.MustInt("page"), r.MustTime("time")})
		return true
	})
	if len(visits) == 0 {
		return nil
	}
	sort.Slice(visits, func(i, j int) bool { return visits[i].at.Before(visits[j].at) })

	agg := map[string]*UsageSlice{}
	var total time.Duration
	// One pinned snapshot serves the whole pass: every visit is attributed
	// against the same consistent view of the derived term stats, no
	// matter how much the ingest path publishes while we classify.
	e.withView(func(view *DerivedView) {
		attribute := func(page int64) string {
			// Explicit placement wins over classifier guesses.
			e.mu.RLock()
			if tree := e.trees[user]; tree != nil {
				if f := tree.FolderOfPage(page); f != nil {
					e.mu.RUnlock()
					return f.Path()
				}
			}
			e.mu.RUnlock()
			if model != nil {
				if tf := view.TermCounts(page); tf != nil {
					folder, conf := model.Classify(tf)
					if conf >= 0.4 {
						return folder
					}
				}
			}
			return "/unfiled"
		}
		// A history revisits pages: a page's folder is decided at its first
		// visit and remembered (same page, model and pinned view give the same
		// answer every time).
		folders := map[int64]string{}
		folderOf := func(page int64) string {
			folder, ok := folders[page]
			if !ok {
				folder = attribute(page)
				folders[page] = folder
			}
			return folder
		}

		const dwellCap = 30 * time.Minute
		const defaultDwell = 30 * time.Second
		for i, v := range visits {
			dwell := defaultDwell
			if i+1 < len(visits) {
				gap := visits[i+1].at.Sub(v.at)
				if gap > 0 && gap <= dwellCap {
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
	})
	out := make([]UsageSlice, 0, len(agg))
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
	return out
}
