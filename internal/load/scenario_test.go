package load

import (
	"reflect"
	"strings"
	"testing"
)

// TestScheduleDeterministic is the harness's own determinism gate: the
// schedule must be a pure function of (scenario, seed) — same pair,
// byte-identical expansion; different seed, a different one. Besides the
// pinned scenarios it expands a crowd of 48 humans and 48 robots four
// times over: ci-small has 2 robots and unit 1, and a map that small
// often ranges in the same order twice, so a client loop in map order
// would slip past them; over 48 clients and three repeats it does not.
func TestScheduleDeterministic(t *testing.T) {
	var scs []Scenario
	for _, name := range []string{"ci-small", "unit"} {
		sc, ok := Lookup(name)
		if !ok {
			t.Fatalf("scenario %q missing", name)
		}
		scs = append(scs, sc)
	}
	crowd := scs[1]
	crowd.Name, crowd.Humans, crowd.Robots = "crowd", 48, 48
	for _, sc := range append(scs, crowd) {
		a := sc.Schedule(1)
		var fa strings.Builder
		FormatSchedule(&fa, a)
		for i := 0; i < 3; i++ {
			b := sc.Schedule(1)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: same seed produced different schedules", sc.Name)
			}
			var fb strings.Builder
			FormatSchedule(&fb, b)
			if fa.String() != fb.String() {
				t.Fatalf("%s: same seed produced different printed schedules", sc.Name)
			}
		}
		if reflect.DeepEqual(a, sc.Schedule(2)) {
			t.Fatalf("%s: seeds 1 and 2 produced identical schedules", sc.Name)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	sc, _ := Lookup("ci-small")
	reqs := sc.Schedule(1)
	if len(reqs) == 0 {
		t.Fatal("empty schedule")
	}

	users := map[int64]bool{}
	for _, id := range sc.Users() {
		if users[id] {
			t.Fatalf("user id %d assigned twice", id)
		}
		if id == 0 {
			t.Fatal("user id 0 would trip the server's user-required validation")
		}
		users[id] = true
	}

	var visits, searches, statuses int
	robotPages := map[string][]int{}
	for i, r := range reqs {
		if r.At < 0 || r.At >= sc.Duration {
			t.Fatalf("request %d at %v outside [0, %v)", i, r.At, sc.Duration)
		}
		if i > 0 && reqs[i].At < reqs[i-1].At {
			t.Fatalf("schedule not sorted at %d", i)
		}
		switch r.Kind {
		case Visit:
			visits++
			if r.Page < 0 || r.Page >= sc.Pages {
				t.Fatalf("visit page %d outside universe of %d", r.Page, sc.Pages)
			}
			if r.Ref >= sc.Pages {
				t.Fatalf("visit ref %d outside universe", r.Ref)
			}
			if !users[r.User] {
				t.Fatalf("visit from unregistered user %d", r.User)
			}
			if strings.HasPrefix(r.Client, "robot-") {
				robotPages[r.Client] = append(robotPages[r.Client], r.Page)
			}
		case Search:
			searches++
			if r.Query < 0 || r.Query >= sc.Queries {
				t.Fatalf("search query %d outside universe of %d", r.Query, sc.Queries)
			}
		case StatusRead:
			statuses++
		default:
			t.Fatalf("request %d has unknown kind %v", i, r.Kind)
		}
	}
	if visits == 0 || searches == 0 || statuses == 0 {
		t.Fatalf("degenerate mix: %d visits, %d searches, %d status reads", visits, searches, statuses)
	}

	// Robots crawl sequentially: consecutive pages increment mod Pages —
	// the archive-robot access signature the scenario models.
	if len(robotPages) != sc.Robots {
		t.Fatalf("%d robots emitted visits, want %d", len(robotPages), sc.Robots)
	}
	for name, pages := range robotPages {
		for i := 1; i < len(pages); i++ {
			if pages[i] != (pages[i-1]+1)%sc.Pages {
				t.Fatalf("%s not sequential at %d: %d then %d", name, i, pages[i-1], pages[i])
			}
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := Lookup("no-such-scenario"); ok {
		t.Fatal("unknown scenario resolved")
	}
}
