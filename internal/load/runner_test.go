package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"memex/internal/core"
	"memex/internal/server"
)

type stubSource struct{}

func (stubSource) Lookup(url string) (core.Content, bool) {
	return core.Content{URL: url, Title: "t", Text: "alpha beta gamma delta"}, true
}

func newTestEngine(t testing.TB) *core.Engine {
	t.Helper()
	e, err := core.Open(core.Config{
		Dir:    t.TempDir(),
		Source: stubSource{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// tiny is a sub-second population for runner tests: every client kind
// present, short enough to keep the suite fast.
var tiny = Scenario{
	Name:            "tiny-test",
	Duration:        300 * time.Millisecond,
	Humans:          2,
	HumanThink:      30 * time.Millisecond,
	HumanSearchFrac: 0.3,
	Robots:          1,
	RobotBurst:      5,
	RobotGap:        2 * time.Millisecond,
	RobotIdle:       100 * time.Millisecond,
	MonitorEvery:    40 * time.Millisecond,
	Pages:           10,
	Queries:         2,
	ZipfS:           1.3,
	ZipfV:           1,
}

func testUniverse(sc Scenario) (urls, queries []string) {
	for i := 0; i < sc.Pages; i++ {
		urls = append(urls, fmt.Sprintf("http://load.test.example.org/p%02d.html", i))
	}
	for i := 0; i < sc.Queries; i++ {
		queries = append(queries, fmt.Sprintf("term%d", i))
	}
	return urls, queries
}

// TestRunAgainstLiveServer drives the unit scenario at a real engine
// and checks the whole chain: every scheduled request lands and is
// timed, each kind's row holds one sample per scheduled request of that
// kind, a generous budget passes, an absurd one demonstrably fails, and
// the report round-trips byte-identically through the trajectory
// encoding.
func TestRunAgainstLiveServer(t *testing.T) {
	e := newTestEngine(t)
	ts := httptest.NewServer(server.New(e))
	defer ts.Close()

	sc, _ := Lookup("unit")
	urls, queries := testUniverse(sc)
	rep, err := Run(sc, Options{
		Target:  ts.URL,
		URLs:    urls,
		Queries: queries,
		Seed:    1,
		Commit:  "deadbeef",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := validateReport(rep); err != nil {
		t.Fatal(err)
	}

	sched := sc.Schedule(1)
	if rep.Requests != len(sched) {
		t.Fatalf("report says %d requests, schedule has %d", rep.Requests, len(sched))
	}
	var wantWrites, wantReads int
	scheduled := map[Kind]int{}
	for _, r := range sched {
		scheduled[r.Kind]++
		if r.Kind == Visit {
			wantWrites++
		} else {
			wantReads++
		}
	}
	if rep.Writes.Sent != wantWrites || rep.Reads.Sent != wantReads {
		t.Fatalf("sent writes/reads = %d/%d, want %d/%d",
			rep.Writes.Sent, rep.Reads.Sent, wantWrites, wantReads)
	}
	// No admission control configured: nothing may be shed or lost.
	if rep.Writes.OK != wantWrites || rep.Writes.Lost() != 0 || rep.Writes.Shed != 0 {
		t.Fatalf("unlimited server lost writes: %+v", rep.Writes)
	}
	if rep.Reads.OK != wantReads {
		t.Fatalf("unlimited server failed reads: %+v", rep.Reads)
	}
	if rep.EngineDroppedEvents != 0 {
		t.Fatalf("%v events dropped in a tiny run", rep.EngineDroppedEvents)
	}

	// Every kind the scenario schedules has a row with one sample per
	// scheduled request, and ordered, measured quantiles.
	if len(rep.Kinds) != len(scheduled) {
		t.Fatalf("%d rows for %d scheduled kinds: %+v", len(rep.Kinds), len(scheduled), rep.Kinds)
	}
	for k, n := range scheduled {
		row, ok := rep.Row(k)
		if !ok || row.Count != n {
			t.Fatalf("%s row %+v, want count %d (rows: %+v)", k, row, n, rep.Kinds)
		}
		if !(0 < row.P50Ms && row.P50Ms <= row.P99Ms && row.P99Ms <= row.P999Ms) {
			t.Fatalf("%s quantiles not 0 < p50 ≤ p99 ≤ p999: %+v", k, row)
		}
		if row.Err4xx != 0 || row.Err5xx != 0 {
			t.Fatalf("%s errors on an unlimited server: %+v", k, row)
		}
	}

	if res := Evaluate(rep, Budget{P99StatusReadMs: 60_000}); !res.Pass {
		t.Fatalf("generous budget failed: %v", res.Violations)
	}
	// The gate must demonstrably fail when the budget is violated: no
	// real status read completes in a nanosecond.
	res := Evaluate(rep, Budget{P99StatusReadMs: 1e-6})
	if res.Pass {
		t.Fatal("absurd p99 budget passed")
	}
	if len(res.Violations) != 1 || !strings.Contains(res.Violations[0], "exceeds budget") {
		t.Fatalf("violations = %v", res.Violations)
	}
	if rep.SLO == nil || rep.SLO.Pass {
		t.Fatal("verdict not recorded on the report")
	}

	// Round-trip: the canonical encoding must survive parse → re-emit
	// byte-identically.
	var buf1, buf2 bytes.Buffer
	if err := rep.WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	back, err := readReport(bytes.NewReader(buf1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := back.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("report did not round-trip byte-identically")
	}
	// And the checks refuse what the schema forbids: unsorted rows would
	// break every reader that bisects by name.
	back.Kinds[0], back.Kinds[1] = back.Kinds[1], back.Kinds[0]
	buf2.Reset()
	if err := back.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if _, err := readReport(&buf2); err == nil {
		t.Fatal("readReport accepted unsorted rows")
	}
}

// TestRunCountsPoliteSheds rate-limits the target hard enough that most
// of the burst is refused, and checks refusals land in the polite-shed
// column (429 with Retry-After) — not in the lost column the SLO gate
// fails on.
func TestRunCountsPoliteSheds(t *testing.T) {
	e := newTestEngine(t)
	ts := httptest.NewServer(server.NewWith(e, server.Config{RatePerSec: 0.001}))
	defer ts.Close()

	urls, queries := testUniverse(tiny)
	rep, err := Run(tiny, Options{
		Target:  ts.URL,
		URLs:    urls,
		Queries: queries,
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Writes.Shed == 0 {
		t.Fatalf("nothing shed under an 8-token bucket: %+v", rep.Writes)
	}
	if rep.Writes.ShedNoRetryAfter != 0 || rep.Writes.Lost() != 0 {
		t.Fatalf("sheds misclassified: %+v", rep.Writes)
	}
	// Polite sheds are not SLO violations.
	if res := Evaluate(rep, Budget{P99StatusReadMs: 60_000}); !res.Pass {
		t.Fatalf("polite sheds failed the gate: %v", res.Violations)
	}
	// Each 429 is also a 4xx on the visit row.
	if row, ok := rep.Row(Visit); !ok || row.Err4xx != rep.Writes.Shed {
		t.Fatalf("visit row %+v, want %d 4xx", row, rep.Writes.Shed)
	}
}

// TestScrapeRoundTrip checks the harness's client-side tally against the
// server's own /metrics after a run: for each kind, the server counted
// and timed exactly the requests the report says were sent (plus the two
// status reads Run makes outside the measured window), and answered none
// of them with an error.
func TestScrapeRoundTrip(t *testing.T) {
	e := newTestEngine(t)
	ts := httptest.NewServer(server.New(e))
	defer ts.Close()

	urls, queries := testUniverse(tiny)
	rep, err := Run(tiny, Options{Target: ts.URL, URLs: urls, Queries: queries, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status %d, err %v", resp.StatusCode, err)
	}
	body := string(raw)

	endpoints := map[Kind]string{Visit: "POST /api/event", Search: "GET /api/search", StatusRead: "GET /api/status"}
	for k, ep := range endpoints {
		row, ok := rep.Row(k)
		if !ok {
			t.Fatalf("no %s row in %+v", k, rep.Kinds)
		}
		want := row.Count
		if k == StatusRead {
			want += 2 // Run's health check and final status read
		}
		for _, line := range []string{
			fmt.Sprintf("memex_http_requests_total{endpoint=%q} %d\n", ep, want),
			fmt.Sprintf("memex_http_request_duration_seconds_count{endpoint=%q} %d\n", ep, want),
			fmt.Sprintf("memex_http_errors_total{endpoint=%q,class=\"4xx\"} 0\n", ep),
			fmt.Sprintf("memex_http_errors_total{endpoint=%q,class=\"5xx\"} 0\n", ep),
		} {
			if !strings.Contains(body, line) {
				t.Errorf("scrape missing %q (report row %+v)", line, row)
			}
		}
	}
}

// TestNearestRank pins the percentile rule to bench's: the ⌈n·p/100⌉-th
// smallest sample, clamped to the first and last.
func TestNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	cases := []struct {
		name   string
		sorted []float64
		p      float64
		want   float64
	}{
		{"no samples", nil, 99, 0},
		{"one sample p50", []float64{7}, 50, 7},
		{"one sample p99.9", []float64{7}, 99.9, 7},
		{"p0 is the smallest", []float64{1, 2, 3}, 0, 1},
		{"p100 is the largest", []float64{1, 2, 3}, 100, 3},
		{"hundred p50", hundred, 50, 50},
		{"hundred p99", hundred, 99, 99},
		{"hundred p99.9", hundred, 99.9, 100},
		{"hundred p1", hundred, 1, 1},
		{"hundred p1.5", hundred, 1.5, 2},
	}
	for _, tc := range cases {
		if got := nearestRank(tc.sorted, tc.p); got != tc.want {
			t.Errorf("%s: nearestRank(p=%v) = %v, want %v", tc.name, tc.p, got, tc.want)
		}
	}
}

// stubTarget fakes just enough of the API for the runner: healthy
// status/register/search, with the event endpoint's behavior supplied
// by the test.
func stubTarget(event http.HandlerFunc) *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/status", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{})
	})
	mux.HandleFunc("POST /api/user", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /api/search", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode([]any{})
	})
	mux.HandleFunc("POST /api/event", event)
	return httptest.NewServer(mux)
}

// TestGateFailsOnLostWrites proves the harness catches a server that
// drops writes with a plain 500 — the exact failure mode admission
// control exists to prevent, and the reason the CI gate exists.
func TestGateFailsOnLostWrites(t *testing.T) {
	ts := stubTarget(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	defer ts.Close()

	urls, queries := testUniverse(tiny)
	rep, err := Run(tiny, Options{Target: ts.URL, URLs: urls, Queries: queries, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Writes.Failed5xx == 0 || rep.Writes.Failed5xx != rep.Writes.Sent {
		t.Fatalf("5xx writes not counted: %+v", rep.Writes)
	}
	res := Evaluate(rep, Budget{})
	if res.Pass {
		t.Fatal("lost writes passed the gate")
	}
	var lost, fivexx bool
	for _, v := range res.Violations {
		if strings.Contains(v, "writes lost") {
			lost = true
		}
		if strings.Contains(v, "5xx") {
			fivexx = true
		}
	}
	if !lost || !fivexx {
		t.Fatalf("violations = %v, want lost-writes and 5xx", res.Violations)
	}
}

// TestGateFailsOnShedWithoutRetryAfter proves the harness distinguishes
// polite backpressure from a bare 503: shedding without Retry-After is
// a violation even though no write was technically lost.
func TestGateFailsOnShedWithoutRetryAfter(t *testing.T) {
	ts := stubTarget(func(w http.ResponseWriter, r *http.Request) {
		// Deliberately no Retry-After header.
		http.Error(w, "overloaded", http.StatusServiceUnavailable) // bare on purpose: the misbehavior the gate must catch
	})
	defer ts.Close()

	urls, queries := testUniverse(tiny)
	rep, err := Run(tiny, Options{Target: ts.URL, URLs: urls, Queries: queries, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Writes.ShedNoRetryAfter == 0 || rep.Writes.Shed != 0 {
		t.Fatalf("headerless 503 misclassified: %+v", rep.Writes)
	}
	if rep.Writes.Lost() != 0 {
		t.Fatalf("polite-ish shed counted as lost: %+v", rep.Writes)
	}
	res := Evaluate(rep, Budget{})
	if res.Pass {
		t.Fatal("Retry-After-less sheds passed the gate")
	}
	found := false
	for _, v := range res.Violations {
		if strings.Contains(v, "without Retry-After") {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations = %v, want a Retry-After complaint", res.Violations)
	}
}

func TestRunRejectsUndersizedUniverse(t *testing.T) {
	if _, err := Run(tiny, Options{Target: "http://127.0.0.1:1", URLs: nil, Queries: nil}); err == nil {
		t.Fatal("undersized universe accepted")
	}
}

// readReport parses a LOAD_*.json stream, refusing unknown fields, and
// checks it with validateReport.
func readReport(rd io.Reader) (*Report, error) {
	var r Report
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("load: parse report: %w", err)
	}
	if err := validateReport(&r); err != nil {
		return nil, err
	}
	return &r, nil
}

// validateReport checks the invariants the trajectory tooling relies on:
// schema tag, sorted rows, ordered quantiles, sane counts.
func validateReport(r *Report) error {
	if r.Schema != SchemaLoad {
		return fmt.Errorf("load: schema %q, want %q", r.Schema, SchemaLoad)
	}
	if r.Date == "" || r.Target == "" || r.Scenario == "" {
		return fmt.Errorf("load: date, target and scenario are required")
	}
	if !sort.SliceIsSorted(r.Kinds, func(i, j int) bool { return r.Kinds[i].Kind < r.Kinds[j].Kind }) {
		return fmt.Errorf("load: rows not sorted")
	}
	for _, row := range r.Kinds {
		if row.P50Ms > row.P99Ms || row.P99Ms > row.P999Ms {
			return fmt.Errorf("load: %s quantiles out of order (p50 %.3f, p99 %.3f, p999 %.3f)",
				row.Kind, row.P50Ms, row.P99Ms, row.P999Ms)
		}
		if row.Count < 0 || row.Err4xx < 0 || row.Err5xx < 0 {
			return fmt.Errorf("load: %s has negative counters", row.Kind)
		}
	}
	return nil
}
