package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"memex/internal/core"
	"memex/internal/kvstore"
	"memex/internal/version"
)

// stubSource resolves every URL to a tiny page: enough for the ingest
// pipeline to run end to end without a corpus.
type stubSource struct{}

func (stubSource) Lookup(url string) (core.Content, bool) {
	return core.Content{URL: url, Title: "t", Text: "alpha beta gamma"}, true
}

func newTestEngine(t *testing.T) *core.Engine {
	t.Helper()
	e, err := core.Open(core.Config{
		Dir:    t.TempDir(),
		Source: stubSource{},
		KV:     kvstore.Options{Sync: kvstore.SyncNever},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestBadParamsReturn400 is the regression table for the silent-parse
// bugs, over all 16 routes: a malformed user must say "bad user" (not
// masquerade as missing), a missing one must say "user required", a
// malformed since, k or budget must be refused instead of quietly taking
// a default, and an unknown privacy mode must not widen to community.
// Every refusal is a 400 with the JSON error envelope; a route that takes
// no params ignores junk ones (wantErr "" wants a 200).
func TestBadParamsReturn400(t *testing.T) {
	srv := New(newTestEngine(t))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const visit = `{"user":1,"url":"http://x/",`
	cases := []struct {
		name    string
		method  string
		path    string
		body    string
		wantErr string
	}{
		{"search bad user", "GET", "/api/search?q=x&user=abc", "", "bad user"},
		{"usage bad user", "GET", "/api/usage?user=abc", "", "bad user"},
		{"usage missing user", "GET", "/api/usage", "", "user required"},
		{"usage bad since", "GET", "/api/usage?user=1&since=yesterday", "", "bad since"},
		{"export bad user", "GET", "/api/folders/export?user=abc", "", "bad user"},
		{"export missing user", "GET", "/api/folders/export", "", "user required"},
		{"import bad user", "POST", "/api/folders/import?user=abc", "", "bad user"},
		{"recommend bad user", "GET", "/api/recommend?user=abc", "", "bad user"},
		{"profile bad user", "GET", "/api/profile?user=abc", "", "bad user"},
		{"trails bad user", "GET", "/api/trails?user=abc&folder=f", "", "bad user"},
		{"trails missing folder", "GET", "/api/trails?user=1", "", "folder required"},
		{"discover bad user", "GET", "/api/discover?user=abc&folder=f", "", "bad user"},
		{"discover missing folder", "GET", "/api/discover?user=1", "", "folder required"},

		{"search bad k", "GET", "/api/search?q=x&k=abc", "", "bad k"},
		{"search missing q", "GET", "/api/search?k=3", "", "q required"},
		{"search negative k takes the default", "GET", "/api/search?q=x&k=-1", "", ""},
		{"trails bad k", "GET", "/api/trails?user=1&folder=f&k=abc", "", "bad k"},
		{"recommend bad k", "GET", "/api/recommend?user=1&k=1.5", "", "bad k"},
		{"discover bad budget", "GET", "/api/discover?user=1&folder=f&budget=x", "", "bad budget"},
		{"discover bad k", "GET", "/api/discover?user=1&folder=f&k=abc", "", "bad k"},
		{"user missing name", "POST", "/api/user", `{"id":1}`, "id and name required"},
		{"user unknown field", "POST", "/api/user", `{"id":1,"name":"a","extra":2}`, "bad request body"},
		{"event privacy typo", "POST", "/api/event", visit + `"privacy":"privat"}`, `want \"off\", \"private\" or \"community\"`},
		{"event privacy wrong case", "POST", "/api/event", visit + `"privacy":"Private"}`, "bad privacy"},
		{"event missing url", "POST", "/api/event", `{"user":1}`, "user and url required"},
		{"event empty privacy is the default", "POST", "/api/event", visit + `"privacy":""}`, ""},
		{"event private", "POST", "/api/event", visit + `"privacy":"private"}`, ""},
		{"event url over the store's row limit", "POST", "/api/event", `{"user":1,"url":"http://x/` + strings.Repeat("x", 2000) + `"}`,
			fmt.Sprintf("may take %d bytes", kvstore.MaxKV)},
		{"bookmark missing folder", "POST", "/api/bookmark", `{"user":1,"url":"http://x/"}`, "user, url and folder required"},
		{"correct malformed body", "POST", "/api/correct", `{`, "bad request body"},
		{"correct unknown page", "POST", "/api/correct", `{"user":1,"url":"http://never-seen/","folder":"/f"}`, "unknown page"},
		{"themes ignores params", "GET", "/api/themes?k=abc", "", ""},
		{"rebuild ignores params", "POST", "/api/themes/rebuild?user=abc", "", ""},
		{"status ignores params", "GET", "/api/status?user=abc", "", ""},
		{"metrics ignores params", "GET", "/metrics?k=abc", "", ""},
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		route, _, _ := strings.Cut(tc.path, "?")
		covered[tc.method+" "+route] = true
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if tc.wantErr == "" {
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status = %d, want 200 (body %s)", resp.StatusCode, body)
				}
				return
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", resp.StatusCode, body)
			}
			if !strings.Contains(string(body), tc.wantErr) {
				t.Fatalf("body = %s, want error containing %q", body, tc.wantErr)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type = %q, want application/json", ct)
			}
			if !strings.HasPrefix(string(body), `{"error":"`) {
				t.Fatalf("body = %s, want the error envelope", body)
			}
		})
	}
	for route := range srv.metrics.endpoints {
		if !covered[route] {
			t.Errorf("route %q has no case in the table", route)
		}
	}
	if len(covered) != 16 {
		t.Errorf("table covers %d routes, want 16", len(covered))
	}
}

// TestFailedHandlerCommitsOnlyTheError is the export-truncation bug as a
// property of every route: whatever a handler had rendered when it
// failed, the client gets a 500 and the JSON envelope, and none of it.
func TestFailedHandlerCommitsOnlyTheError(t *testing.T) {
	srv := New(newTestEngine(t))
	srv.handle("GET /half", readRoute, func(*http.Request) (reply, error) {
		return reply{"text/html; charset=utf-8", []byte("<DL><DT>half a tree")}, fmt.Errorf("walk failed")
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/half")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, Content-Type %q, want 500 application/json", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if got, want := string(body), `{"error":"walk failed"}`+"\n"; got != want {
		t.Fatalf("body = %q, want %q", got, want)
	}
	if m := fetchMetrics(t, ts.URL); !strings.Contains(m, `memex_http_errors_total{endpoint="GET /half",class="5xx"} 1`) {
		t.Fatalf("the 500 was not the code instrumented:\n%s", grepMetrics(m, "/half"))
	}
}

// TestMalformedUserDistinctFromMissing pins the exact distinction the
// qint64 fix exists for: ?user=abc used to parse to 0 and return the
// misleading "user required".
func TestMalformedUserDistinctFromMissing(t *testing.T) {
	ts := httptest.NewServer(New(newTestEngine(t)))
	defer ts.Close()
	get := func(path string) string {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	malformed := get("/api/profile?user=abc")
	missing := get("/api/profile")
	if !strings.Contains(malformed, "bad user") || strings.Contains(malformed, "required") {
		t.Fatalf("malformed user body = %s", malformed)
	}
	if !strings.Contains(missing, "user required") {
		t.Fatalf("missing user body = %s", missing)
	}
}

func TestRateLimitAnswers429(t *testing.T) {
	clk := &fakeClock{t: time.Unix(2000, 0)}
	srv := NewWith(newTestEngine(t), Config{RatePerSec: 0.001, Burst: 2, Now: clk.now})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var ok200, got429 int
	for i := 0; i < 6; i++ {
		resp, err := http.Get(ts.URL + "/api/themes?user=7")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests:
			got429++
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
		default:
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
	}
	if ok200 != 2 || got429 != 4 {
		t.Fatalf("200/429 = %d/%d, want 2/4 (burst then dry)", ok200, got429)
	}
	// A different user (different bucket) still gets in.
	resp, err := http.Get(ts.URL + "/api/themes?user=8")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("independent client got %d", resp.StatusCode)
	}
	// The ops endpoints stay reachable for the throttled client.
	for _, path := range []string{"/metrics?user=7", "/api/status?user=7"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ops endpoint %s throttled: %d", path, resp.StatusCode)
		}
	}
	// The refusals are visible in the shed counters.
	body := fetchMetrics(t, ts.URL)
	if !strings.Contains(body, `memex_http_rejected_total{endpoint="GET /api/themes",reason="rate"} 4`) {
		t.Fatalf("rate rejections not counted:\n%s", grepMetrics(body, "rejected"))
	}
}

func TestInFlightCapAnswers503(t *testing.T) {
	srv := NewWith(newTestEngine(t), Config{MaxInFlight: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Simulate one request already being served; the next must bounce.
	srv.metrics.inFlight.Add(1)
	resp, err := http.Get(ts.URL + "/api/themes")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 at capacity", resp.StatusCode)
	}
	// Ops endpoints are exempt: a saturated server must still answer its
	// operators.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics refused at capacity: %d", resp.StatusCode)
	}
	// The /metrics handler gives its own slot back only after its reply is
	// on the wire; wait for that before freeing the simulated one.
	for deadline := time.Now().Add(5 * time.Second); srv.metrics.inFlight.Load() > 1 && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	srv.metrics.inFlight.Add(-1)
	resp, err = http.Get(ts.URL + "/api/themes")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d after capacity freed, want 200", resp.StatusCode)
	}
}

func TestWriteShedOnSyntheticPressure(t *testing.T) {
	srv := NewWith(newTestEngine(t), Config{ShedQueueFraction: 0.9})
	// Inject a synthetic backed-up pipeline; reads must pass, writes 503.
	srv.pressure = func() core.Pressure {
		return core.Pressure{QueueDepth: 95, QueueCap: 100}
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/api/event", "application/json",
		strings.NewReader(`{"user":1,"url":"http://x/"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("write under pressure: status %d body %s, want 503", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "overloaded") {
		t.Fatalf("shed body = %s", body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response without Retry-After")
	}
	// Reads are not shed by pipeline pressure.
	resp, err = http.Get(ts.URL + "/api/themes")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read shed under write pressure: %d", resp.StatusCode)
	}
}

// TestMetricsEndpointMovesWithTraffic drives real requests through the
// chain and checks the scrape reflects them.
func TestMetricsEndpointMovesWithTraffic(t *testing.T) {
	e := newTestEngine(t)
	ts := httptest.NewServer(New(e))
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/api/event", "application/json",
			strings.NewReader(fmt.Sprintf(`{"user":1,"url":"http://page%d/"}`, i)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	// One 4xx for the error counter.
	resp, err := http.Get(ts.URL + "/api/profile?user=abc")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	e.DrainBackground()

	// The engine gauges render the same Stats snapshot /api/status serves.
	st := e.Status()
	if p := e.Pressure(); st.QueueCap != p.QueueCap || st.QueueCap == 0 {
		t.Fatalf("Stats.QueueCap = %d, Pressure says %d", st.QueueCap, p.QueueCap)
	}
	body := fetchMetrics(t, ts.URL)
	if st.FoldLag == 0 {
		t.Fatal("Stats.FoldLag = 0 with unfolded publishes")
	}
	if e.Status().FoldLag == st.FoldLag { // no fold ran between the two reads
		if want := fmt.Sprintf("memex_version_fold_lag_epochs %d\n", st.FoldLag); !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	for _, want := range []string{
		fmt.Sprintf("memex_engine_queue_capacity %d\n", st.QueueCap),
		`memex_http_requests_total{endpoint="POST /api/event"} 3`,
		`memex_http_request_duration_seconds_count{endpoint="POST /api/event"} 3`,
		`memex_http_errors_total{endpoint="GET /api/profile",class="4xx"} 1`,
		"memex_engine_visits_total 3",
		"memex_engine_queue_depth",
		"memex_version_watermark",
		"memex_version_fold_errors_total 0\n",
		"memex_cache_hit_ratio",
		"memex_kv_commits_total ",
		"memex_kv_wal_bytes_total ",
		"memex_kv_leaf_splits_total ",
		"memex_kv_leaf_rebalances_total ",
		fmt.Sprintf("memex_dict_terms %d\n", st.Terms),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Three visits are at least three row commits; a fold may add more.
	if st.KV.Commits < 3 || st.KV.WALBytes == 0 {
		t.Errorf("Stats.KV = %+v after three visits, want >= 3 commits and some WAL bytes", st.KV)
	}
}

// TestMetricsShowFailedFolds: a fold round that failed is on the scrape, not
// only in /api/status (core's TestStatusReportsFailedFold puts it there).
func TestMetricsShowFailedFolds(t *testing.T) {
	var buf bytes.Buffer
	writeEngineMetrics(&buf, core.Stats{Version: version.Stats{Cold: &version.ColdStats{Folds: 7, FoldErrors: 2}}})
	for _, want := range []string{"memex_version_folds_total 7\n", "memex_version_fold_errors_total 2\n"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestMetricsConcurrentWithIngest hammers /metrics while events ingest;
// run under -race (CI's race job covers this package) it proves the
// scrape path takes no lock the request path misses.
func TestMetricsConcurrentWithIngest(t *testing.T) {
	e := newTestEngine(t)
	ts := httptest.NewServer(New(e))
	defer ts.Close()

	const (
		scrapers = 4
		writers  = 4
		perG     = 25
	)
	var wg sync.WaitGroup
	for g := 0; g < scrapers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				resp, err := http.Post(ts.URL+"/api/event", "application/json",
					strings.NewReader(fmt.Sprintf(`{"user":%d,"url":"http://w%d/p%d"}`, g+1, g, i)))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(g)
	}
	wg.Wait()
	e.DrainBackground()

	body := fetchMetrics(t, ts.URL)
	want := fmt.Sprintf(`memex_http_requests_total{endpoint="POST /api/event"} %d`, writers*perG)
	if !strings.Contains(body, want) {
		t.Fatalf("lost samples under concurrency: want %q in\n%s", want, grepMetrics(body, "requests_total"))
	}
}

func fetchMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// grepMetrics filters a scrape to lines containing substr for readable
// failure messages.
func grepMetrics(body, substr string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
