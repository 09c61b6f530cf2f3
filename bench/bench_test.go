package main

import (
	"math"
	"slices"
	"sort"
	"testing"

	"memex/internal/core"
)

// A world and rounds small enough that a whole run takes a fraction of a
// second.
var (
	tinyWorld = worldSize{pagesPerLeaf: 30, users: 12, days: 12, visits: 900}
	tinyRound = roundSize{visits: 40, bookmarks: 4, imports: 1, importSize: 12, probes: 1,
		searches: 20, trails: 1, recommends: 1, usage: 2}
)

func tinyConfig(t *testing.T, name string, trace bool) runConfig {
	t.Helper()
	wl, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	wl.round = tinyRound
	return runConfig{workload: wl, seed: 3, rounds: 2, trace: trace, world: tinyWorld, tmp: t.TempDir()}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	digest := func(name string, seed int64) string {
		wl, _ := lookupWorkload(name)
		wl.round = tinyRound
		s, err := buildSchedule(newWorld(tinyWorld), wl, seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		return s.digest()
	}
	for _, wl := range workloads {
		a, b, c := digest(wl.name, 3), digest(wl.name, 3), digest(wl.name, 4)
		if a != b {
			t.Errorf("%s: seed 3 gave digests %s and %s", wl.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 3 and 4 gave the same digest", wl.name)
		}
	}
}

func TestFrozenRoundsFitTheEventQueue(t *testing.T) {
	for _, wl := range workloads {
		if n := wl.round.writeEvents(); n >= queueSize {
			t.Errorf("%s: a round queues %d events, the queue holds %d", wl.name, n, queueSize)
		}
	}
}

func TestPercentile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 50, 7},
		{[]float64{7}, 99, 7},
		{[]float64{4, 1, 3, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 75, 3},
		{[]float64{4, 1, 3, 2}, 100, 4},
		{[]float64{5, 1, 4, 2, 3}, 50, 3},
		{[]float64{5, 1, 4, 2, 3}, 99, 5},
		{[]float64{5, 1, 4, 2, 3}, 1, 1},
		{[]float64{5, 1, 4, 2, 3}, 0, 1},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
}

func TestRoundMedianAndMedian(t *testing.T) {
	for _, c := range []struct {
		rounds [][]float64
		want   float64
	}{
		{nil, 0},
		{[][]float64{{1, 2, 3}}, 2},
		// One slow round in three does not move the result; an empty round is skipped.
		{[][]float64{{100, 200, 300}, {2, 3, 4}, {}, {5, 6, 7}}, 6},
		// Two of four rounds count with the mean of the middle two.
		{[][]float64{{1}, {3}, {5}, {100}}, 4},
		// Inside a round it is the median that counts, not the fastest call.
		{[][]float64{{1, 9, 9}, {5, 5, 5}, {1, 7, 8}}, 7},
	} {
		if got := roundMedian(c.rounds, 50); got != c.want {
			t.Errorf("roundMedian(%v) = %v, want %v", c.rounds, got, c.want)
		}
	}
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestQuartilesAreThePythonOnes(t *testing.T) {
	// statistics.quantiles([...], n=4) of the same lists.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1}, 0, 0},
		{[]float64{2, 1}, 0.75, 2.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 12, 13, 15, 20, 21, 22, 30, 31, 50}, 12.75, 30.25},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSameAnswerToleratesLastBitsOnly(t *testing.T) {
	hits := func(urlsAndScores ...any) []core.PageInfo {
		var out []core.PageInfo
		for i := 0; i < len(urlsAndScores); i += 2 {
			out = append(out, core.PageInfo{URL: urlsAndScores[i].(string), Score: urlsAndScores[i+1].(float64)})
		}
		return out
	}
	a := hits("u1", 2.0, "u2", 1.0)
	for _, c := range []struct {
		name string
		b    []core.PageInfo
		want bool
	}{
		{"identical", hits("u1", 2.0, "u2", 1.0), true},
		{"last bits", hits("u1", math.Nextafter(2, 3), "u2", 1.0), true},
		{"score moved", hits("u1", 2.1, "u2", 1.0), false},
		{"tie swapped across the cut", hits("u1", 2.0, "u3", 1.0), true},
		{"new page that does not tie", hits("u1", 2.0, "u3", 1.5), false},
		{"shorter", hits("u1", 2.0), false},
	} {
		if got := sameAnswer(a, c.b); got != c.want {
			t.Errorf("%s: sameAnswer = %v, want %v", c.name, got, c.want)
		}
	}
	// Without scores the pages themselves must match, in any order.
	unscored := hits("u1", 0.0, "u2", 0.0)
	if !sameAnswer(unscored, hits("u2", 0.0, "u1", 0.0)) || sameAnswer(unscored, hits("u1", 0.0, "u3", 0.0)) {
		t.Error("sameAnswer on unscored lists does not compare the pages")
	}
}

func specNames(specs []metricSpec) []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	return names
}

// A run prints exactly the metrics BENCHMARK.json names, the workloads it
// lists are the ones the benchmark has, and a correct run fails nothing.
func TestRunPrintsTheNamesInBenchmarkJSON(t *testing.T) {
	spec, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var have, want []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	for _, w := range spec.Workloads {
		want = append(want, w.Name)
	}
	if !slices.Equal(have, want) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", have, want)
	}
	for _, wl := range workloads[:2] { // surf-mixed is played by the traced run below
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel()
			rep, err := run(tinyConfig(t, wl.name, false))
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%d of %d operations failed: %v", rep.failed, rep.attempted, rep.failures)
			}
			if got, want := metricNamesSorted(rep.metrics), specNames(spec.EndToEnd); !slices.Equal(got, want) {
				t.Errorf("printed %v, BENCHMARK.json has %v", got, want)
			}
			for name, m := range rep.metrics {
				if m.Value <= 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v", name, m.Value)
				}
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		t.Parallel()
		cfg := tinyConfig(t, "surf-mixed", true)
		cfg.rounds = 4
		rep, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.failed != 0 {
			t.Errorf("%d operations failed: %v", rep.failed, rep.failures)
		}
		if got, want := metricNamesSorted(rep.metrics), specNames(spec.PerLayer); !slices.Equal(got, want) {
			t.Errorf("printed %v, BENCHMARK.json has %v", got, want)
		}
	})
}

// A page source that loses one page the run submits must show up as a
// failed operation: the engine fetched one page fewer than was sent.
func TestOracleReportsALostPage(t *testing.T) {
	t.Parallel()
	cfg := tinyConfig(t, "crawl-ingest", false)
	s, err := buildSchedule(newWorld(cfg.world), cfg.workload, cfg.seed, cfg.rounds)
	if err != nil {
		t.Fatal(err)
	}
	cfg.lose = s.rounds[0][0].url
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed == 0 {
		t.Fatalf("the source lost %s and no operation failed", cfg.lose)
	}
}
