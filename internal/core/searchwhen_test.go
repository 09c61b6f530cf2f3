package core

import (
	"strings"
	"testing"
	"time"

	"memex/internal/events"
)

// TestSearchWhen covers the §1 recall question: finding a page by topic
// terms restricted to when the user visited it.
func TestSearchWhen(t *testing.T) {
	c, e := testWorld(t)
	e.RegisterUser(1, "alice")

	var content []int64
	for _, pid := range c.LeafPages[c.Leaves()[0].ID] {
		if !c.Page(pid).Front {
			content = append(content, pid)
		}
	}
	early := tBase                          // "six months back"
	late := tBase.Add(180 * 24 * time.Hour) // recently
	e.RecordVisit(1, c.Page(content[0]).URL, "", early, events.Community)
	e.RecordVisit(1, c.Page(content[1]).URL, "", late, events.Community)
	e.DrainBackground()

	// A query matching both pages' topical vocabulary.
	var q []string
	for _, w := range strings.Fields(c.Page(content[0]).Text) {
		if strings.Contains(w, "_") {
			q = append(q, w)
			if len(q) == 3 {
				break
			}
		}
	}
	query := strings.Join(q, " ")

	// Unscoped: both periods reachable.
	all := e.SearchWhen(1, query, 10, time.Time{}, time.Time{})
	if len(all) == 0 {
		t.Fatal("unscoped SearchWhen found nothing")
	}
	// Scoped to the early window: only the old visit.
	old := e.SearchWhen(1, query, 10, early.Add(-time.Hour), early.Add(time.Hour))
	for _, h := range old {
		if h.ID == e.idByURL[c.Page(content[1]).URL] {
			t.Fatal("late visit leaked into early window")
		}
	}
	if len(old) == 0 {
		t.Fatal("early window found nothing")
	}
	// Scoped to a window with no visits.
	if got := e.SearchWhen(1, query, 10, late.Add(time.Hour), time.Time{}); len(got) != 0 {
		t.Fatalf("empty window returned %v", got)
	}
	// Other users see nothing in this user's windows.
	if got := e.SearchWhen(2, query, 10, time.Time{}, time.Time{}); len(got) != 0 {
		t.Fatalf("wrong user got %v", got)
	}
}

// TestWindowQueryPlans pins the access path behind time-scoped recall:
// every window shape is one key range of the visits table, and the range
// holds exactly the user's visits in the window — counted here by decoding
// every record the range holds — so the scan reads no other user's record
// and none of this user's outside the window, however long the history.
func TestWindowQueryPlans(t *testing.T) {
	c, e := testWorld(t)
	pages := c.LeafPages[c.Leaves()[0].ID]
	// Three users, interleaved in time, each visiting every hour for a day.
	for h := 0; h < 24; h++ {
		for user := int64(1); user <= 3; user++ {
			at := tBase.Add(time.Duration(h)*time.Hour + time.Duration(user)*time.Minute)
			if err := e.RecordVisit(user, c.Page(pages[h%len(pages)]).URL, "", at, events.Community); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.DrainBackground()
	cases := []struct {
		name     string
		from, to time.Time
		want     int
	}{
		{"bounded", tBase.Add(2 * time.Hour), tBase.Add(5 * time.Hour), 3},
		{"from-only", tBase.Add(20 * time.Hour), time.Time{}, 4},
		{"to-only", time.Time{}, tBase.Add(time.Hour), 1},
		{"unbounded", time.Time{}, time.Time{}, 24},
		{"empty", tBase.Add(48 * time.Hour), time.Time{}, 0},
	}
	for _, tc := range cases {
		lo, hi := visitWindow(2, tc.from, tc.to)
		decoded := 0
		err := e.kv.Scan(lo, hi, func(k, v []byte) bool {
			r, err := decodeVisit(k[len(visitsPrefix):], v)
			if err != nil {
				t.Fatal(err)
			}
			decoded++
			if at := r.time(); r.user != 2 || at.Before(tc.from) || !tc.to.IsZero() && !at.Before(tc.to) {
				t.Errorf("%s: the range holds user %d's visit at %v", tc.name, r.user, at)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if decoded != tc.want {
			t.Errorf("%s: the range holds %d records, want the user's %d in the window", tc.name, decoded, tc.want)
		}
	}
}

// TestWindowQueryRows: the window scan returns exactly the user's visits
// in the window, in time order.
func TestWindowQueryRows(t *testing.T) {
	c, e := testWorld(t)
	e.RegisterUser(1, "alice")
	pages := c.LeafPages[c.Leaves()[0].ID]
	times := []time.Time{tBase.Add(48 * time.Hour), tBase, tBase.Add(time.Hour)}
	for i, at := range times {
		if err := e.RecordVisit(1, c.Page(pages[i]).URL, "", at, events.Community); err != nil {
			t.Fatal(err)
		}
	}
	// A second user's visits must never leak into the window.
	e.RegisterUser(2, "bob")
	if err := e.RecordVisit(2, c.Page(pages[3]).URL, "", tBase.Add(time.Minute), events.Community); err != nil {
		t.Fatal(err)
	}
	e.DrainBackground()

	count := func(from, to time.Time) int {
		n := 0
		var last time.Time
		err := e.visitsIn(1, from, to, func(r visitRow) bool {
			if r.user != 1 {
				t.Fatalf("window leaked user %d", r.user)
			}
			if r.time().Before(last) {
				t.Fatalf("visit at %v after one at %v", r.time(), last)
			}
			last = r.time()
			n++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if got := count(time.Time{}, time.Time{}); got != 3 {
		t.Fatalf("unbounded = %d, want 3", got)
	}
	if got := count(tBase.Add(30*time.Minute), tBase.Add(2*time.Hour)); got != 1 {
		t.Fatalf("bounded = %d, want 1", got)
	}
	if got := count(tBase.Add(time.Minute), time.Time{}); got != 2 {
		t.Fatalf("from-only = %d, want 2", got)
	}
	if got := count(time.Time{}, tBase.Add(time.Minute)); got != 1 {
		t.Fatalf("to-only = %d, want 1", got)
	}
}
