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

	"memex/internal/server"
)

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
// and checks the whole chain: every scheduled request lands, the
// /metrics delta yields per-endpoint quantiles, a generous budget
// passes, an absurd one demonstrably fails, and the report round-trips
// byte-identically through the trajectory encoding.
func TestRunAgainstLiveServer(t *testing.T) {
	e := newTestEngine(t)
	ts := httptest.NewServer(server.New(e))
	defer ts.Close()

	sc, _ := Lookup("unit")
	urls, queries := testUniverse(sc)
	rep, err := Run(sc, Options{
		Target:      ts.URL,
		URLs:        urls,
		Queries:     queries,
		Seed:        1,
		ScrapeEvery: 50 * time.Millisecond,
		Commit:      "deadbeef",
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
	for _, r := range sched {
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

	// The endpoints the scenario exercises must have rows with measured
	// latency mass.
	for _, want := range []string{"POST /api/event", "GET /api/search", StatusEndpoint} {
		ep, ok := rep.Endpoint(want)
		if !ok || ep.Count == 0 {
			t.Fatalf("no %q row in report (endpoints: %+v)", want, rep.Endpoints)
		}
		if ep.P999Ms <= 0 {
			t.Fatalf("%q has no latency mass: %+v", want, ep)
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
	// And the checks refuse what the schema forbids: unsorted endpoint
	// rows would break every reader that bisects by name.
	back.Endpoints[0], back.Endpoints[1] = back.Endpoints[1], back.Endpoints[0]
	buf2.Reset()
	if err := back.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if _, err := readReport(&buf2); err == nil {
		t.Fatal("readReport accepted unsorted endpoint rows")
	}
}

// TestRunCountsPoliteSheds rate-limits the target hard enough that most
// of the burst is refused, and checks refusals land in the polite-shed
// column (429 with Retry-After) — not in the lost column the SLO gate
// fails on.
func TestRunCountsPoliteSheds(t *testing.T) {
	e := newTestEngine(t)
	ts := httptest.NewServer(server.NewWith(e, server.Config{RatePerSec: 0.001, Burst: 4}))
	defer ts.Close()

	urls, queries := testUniverse(tiny)
	var scrape bytes.Buffer
	rep, err := Run(tiny, Options{
		Target:      ts.URL,
		URLs:        urls,
		Queries:     queries,
		Seed:        3,
		ScrapeEvery: 50 * time.Millisecond,
		ScrapeOut:   &scrape,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Writes.Shed == 0 {
		t.Fatalf("nothing shed under a 4-token bucket: %+v", rep.Writes)
	}
	if rep.Writes.ShedNoRetryAfter != 0 || rep.Writes.Lost() != 0 {
		t.Fatalf("sheds misclassified: %+v", rep.Writes)
	}
	// Polite sheds are not SLO violations.
	if res := Evaluate(rep, Budget{P99StatusReadMs: 60_000}); !res.Pass {
		t.Fatalf("polite sheds failed the gate: %v", res.Violations)
	}
	// The server-side rejection counters must agree that the event
	// endpoint refused for "rate".
	if ep, ok := rep.Endpoint("POST /api/event"); !ok || ep.Rejected["rate"] == 0 {
		t.Fatalf("no rate rejections recorded: %+v", rep.Endpoints)
	}
	if !strings.Contains(scrape.String(), "memex_http_rejected_total") {
		t.Fatal("ScrapeOut did not receive the raw final scrape")
	}
}

// stubTarget fakes just enough of the API for the runner: healthy
// status/register/search/metrics, with the event endpoint's behavior
// supplied by the test.
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
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "memex_http_in_flight 0")
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
// schema tag, sorted endpoint rows, ordered quantiles, sane counts.
func validateReport(r *Report) error {
	if r.Schema != SchemaLoad {
		return fmt.Errorf("load: schema %q, want %q", r.Schema, SchemaLoad)
	}
	if r.Date == "" || r.Target == "" || r.Scenario == "" {
		return fmt.Errorf("load: date, target and scenario are required")
	}
	if !sort.SliceIsSorted(r.Endpoints, func(i, j int) bool {
		return r.Endpoints[i].Endpoint < r.Endpoints[j].Endpoint
	}) {
		return fmt.Errorf("load: endpoint rows not sorted")
	}
	for _, ep := range r.Endpoints {
		if ep.P50Ms > ep.P99Ms || ep.P99Ms > ep.P999Ms {
			return fmt.Errorf("load: %s quantiles out of order (p50 %.3f, p99 %.3f, p999 %.3f)",
				ep.Endpoint, ep.P50Ms, ep.P99Ms, ep.P999Ms)
		}
		if ep.Count < 0 || ep.Err4xx < 0 || ep.Err5xx < 0 {
			return fmt.Errorf("load: %s has negative counters", ep.Endpoint)
		}
	}
	return nil
}
