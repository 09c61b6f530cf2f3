package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"memex/internal/core"
	"memex/internal/kvstore"
	"memex/internal/text"
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

// TestOversizeBodiesAreRefused: every route that reads a body caps it. A
// body one byte past the cap is a 400 naming the cap, and nothing it
// carried reaches the engine — an import is parsed whole before its first
// bookmark is filed.
func TestOversizeBodiesAreRefused(t *testing.T) {
	e := newTestEngine(t)
	srv := New(e)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	pad := func(head, tail string) string {
		return head + strings.Repeat("x", maxJSONBody+1-len(head)-len(tail)) + tail
	}
	const bookmarks = "<!DOCTYPE NETSCAPE-Bookmark-file-1>\n<DL><p>\n<DT><A HREF=\"http://x/\">x</A>\n"
	cases := []struct {
		path string
		body string
		cap  int
	}{
		{"/api/user", pad(`{"id":1,"name":"`, `"}`), maxJSONBody},
		{"/api/event", pad(`{"user":1,"url":"http://x/`, `"}`), maxJSONBody},
		{"/api/bookmark", pad(`{"user":1,"url":"http://x/","folder":"/`, `"}`), maxJSONBody},
		{"/api/correct", pad(`{"user":1,"url":"http://x/","folder":"/`, `"}`), maxJSONBody},
		{"/api/folders/import?user=1", bookmarks + strings.Repeat("<p>\n", (maxImportBody+1-len(bookmarks)+3)/4), maxImportBody},
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		route, _, _ := strings.Cut(tc.path, "?")
		covered["POST "+route] = true
		t.Run(strings.TrimPrefix(route, "/api/"), func(t *testing.T) {
			if len(tc.body) <= tc.cap {
				t.Fatalf("test body of %d bytes is within the %d-byte cap", len(tc.body), tc.cap)
			}
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if want := fmt.Sprintf("exceeds the %d-byte cap", tc.cap); resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), want) {
				t.Fatalf("status %d, body %s; want a 400 saying %q", resp.StatusCode, body, want)
			}
		})
	}
	for route := range srv.metrics.endpoints {
		if strings.HasPrefix(route, "POST ") && route != "POST /api/themes/rebuild" && !covered[route] {
			t.Errorf("body-taking route %q has no case in the table", route)
		}
	}
	if st := e.Status(); st.Users != 0 || st.Visits != 0 || st.Bookmarks != 0 {
		t.Fatalf("refused bodies reached the engine: %d users, %d visits, %d bookmarks", st.Users, st.Visits, st.Bookmarks)
	}
}

// TestHTTPServerTimeouts: the one http.Server constructor sets every
// timeout, so no server this API runs under waits on a client forever.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := HTTPServer(":0", http.NotFoundHandler())
	for name, got := range map[string]time.Duration{
		"ReadHeaderTimeout": srv.ReadHeaderTimeout,
		"WriteTimeout":      srv.WriteTimeout,
		"IdleTimeout":       srv.IdleTimeout,
	} {
		if got <= 0 {
			t.Errorf("%s is %v: a client can hold the connection forever", name, got)
		}
	}
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.WriteTimeout != writeTimeout || srv.IdleTimeout != idleTimeout {
		t.Fatalf("timeouts %v / %v / %v, want the constants %v / %v / %v",
			srv.ReadHeaderTimeout, srv.WriteTimeout, srv.IdleTimeout, readHeaderTimeout, writeTimeout, idleTimeout)
	}
}

// TestOversizeCountsAreRefused: every route that reads k or budget caps it.
// At the cap is a 200; one past it, and 10^11 (an answer sized by that k
// is beyond any heap), are 400s naming the cap, and the server goes on
// answering. Every other GET route reads neither param: the same oversize
// query gets no cap error from it.
func TestOversizeCountsAreRefused(t *testing.T) {
	srv := New(newTestEngine(t))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	cases := []struct {
		path, param string
		cap         int
	}{
		{"/api/search?q=x", "k", maxK},
		{"/api/trails?user=1&folder=f", "k", maxK},
		{"/api/recommend?user=1", "k", maxK},
		{"/api/discover?user=1&folder=f", "k", maxK},
		{"/api/discover?user=1&folder=f", "budget", maxBudget},
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		route, _, _ := strings.Cut(tc.path, "?")
		covered["GET "+route] = true
		t.Run(strings.TrimPrefix(route, "/api/")+" "+tc.param, func(t *testing.T) {
			if code, body := get(fmt.Sprintf("%s&%s=%d", tc.path, tc.param, tc.cap)); code != http.StatusOK {
				t.Fatalf("%s at the cap: status %d, body %s", tc.param, code, body)
			}
			want := fmt.Sprintf("exceeds the cap of %d", tc.cap)
			for _, v := range []int64{int64(tc.cap) + 1, 100_000_000_000} {
				code, body := get(fmt.Sprintf("%s&%s=%d", tc.path, tc.param, v))
				if code != http.StatusBadRequest || !strings.Contains(body, want) {
					t.Fatalf("%s=%d: status %d, body %s; want a 400 saying %q", tc.param, v, code, body, want)
				}
			}
			if code, body := get("/api/status"); code != http.StatusOK {
				t.Fatalf("after the oversize requests /api/status is %d: %s", code, body)
			}
		})
	}
	for route := range srv.metrics.endpoints {
		method, path, _ := strings.Cut(route, " ")
		if method != "GET" || covered[route] {
			continue
		}
		if _, body := get(path + "?user=1&folder=f&q=x&k=100000000000&budget=100000000000"); strings.Contains(body, "exceeds the cap") {
			t.Errorf("route %q caps a count param but has no case in the table: %s", route, body)
		}
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

// TestAnonymousSearchSeesOnlyCommunityPages: /api/search with no user
// param answers from the community-visible pages, never from a private
// visit; the visit's owner still finds it.
func TestAnonymousSearchSeesOnlyCommunityPages(t *testing.T) {
	e := newTestEngine(t)
	ts := httptest.NewServer(New(e))
	defer ts.Close()
	const secret = "http://intranet.example.org/alice/secret-plan"
	resp, err := http.Post(ts.URL+"/api/event", "application/json",
		strings.NewReader(`{"user":1,"url":"`+secret+`","privacy":"private"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /api/event: status %d", resp.StatusCode)
	}
	e.DrainBackground()

	search := func(query string) string {
		resp, err := http.Get(ts.URL + "/api/search?" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /api/search?%s: status %d, body %s", query, resp.StatusCode, body)
		}
		return string(body)
	}
	if got := search("q=alpha"); strings.Contains(got, secret) {
		t.Fatalf("anonymous search named a private page: %s", got)
	}
	if got := search("q=alpha&user=1"); !strings.Contains(got, secret) {
		t.Fatalf("the owner's search misses their private page: %s", got)
	}
}

func TestRateLimitAnswers429(t *testing.T) {
	clk := &fakeClock{t: time.Unix(2000, 0)}
	srv := NewWith(newTestEngine(t), Config{RatePerSec: 0.001, Now: clk.now})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var ok200, got429 int
	for i := 0; i < 12; i++ {
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
	if ok200 != 8 || got429 != 4 {
		t.Fatalf("200/429 = %d/%d, want 8/4 (the derived 8-token bucket, then dry)", ok200, got429)
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
	const statusReads = 5
	for i := 0; i < statusReads; i++ {
		resp, err := http.Get(ts.URL + "/api/status")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
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
		"memex_kv_checkpoints_total ",
		"memex_kv_leaf_splits_total ",
		"memex_kv_leaf_rebalances_total ",
		"memex_kv_sync_policy{policy=\"always\"} 0\n",
		"memex_kv_sync_policy{policy=\"group\"} 1\n",
		"memex_kv_last_fsync_age_seconds ",
		fmt.Sprintf("memex_dict_terms %d\n", st.Terms),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The page as a whole is exposition format: every line but a comment
	// is `name value` or `name{labels} value`, the value a float, and one
	// endpoint's histogram +Inf bucket, _count and request counter agree.
	label := `[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*"`
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{` + label + `(?:,` + label + `)*\})? (\S+)$`)
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		m := sample.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("not a sample line: %q", line)
			continue
		}
		if _, err := strconv.ParseFloat(m[1], 64); err != nil {
			t.Errorf("value of %q is not a float", line)
		}
	}
	for _, series := range []string{
		`memex_http_request_duration_seconds_bucket{endpoint="GET /api/status",le="+Inf"}`,
		`memex_http_request_duration_seconds_count{endpoint="GET /api/status"}`,
		`memex_http_requests_total{endpoint="GET /api/status"}`,
	} {
		if want := fmt.Sprintf("%s %d\n", series, statusReads); !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, grepMetrics(body, "GET /api/status"))
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
	writeEngineMetrics(&buf, core.Stats{Version: version.Stats{Cold: version.ColdStats{Folds: 7, FoldErrors: 2}}})
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

// TestQueryTermCap: a search names at most maxQueryTerms distinct terms.
// Each one is a posting list walked on the request's goroutine, so a query
// naming every term of the dictionary would walk every list; past the cap
// is a 400 naming it. The count is of distinct index terms: a repeated
// word, or one the stop list drops, costs no list.
func TestQueryTermCap(t *testing.T) {
	ts := httptest.NewServer(New(newTestEngine(t)))
	defer ts.Close()
	words := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("zq%03d", i)
		}
		return out
	}
	cases := []struct {
		name     string
		words    []string
		distinct int
		wantErr  string
	}{
		{"at the cap", words(maxQueryTerms), maxQueryTerms, ""},
		{"at the cap, one term repeated", append(words(maxQueryTerms), "zq000"), maxQueryTerms, ""},
		{"at the cap, plus stop words", append(words(maxQueryTerms), "the", "and", "of"), maxQueryTerms, ""},
		{"one past the cap", words(maxQueryTerms + 1), maxQueryTerms + 1, fmt.Sprintf("exceeds the cap of %d", maxQueryTerms)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := strings.Join(tc.words, " ")
			terms := map[string]bool{}
			for _, term := range text.Terms(q) {
				terms[term] = true
			}
			if len(terms) != tc.distinct {
				t.Fatalf("fixture names %d distinct terms, want %d", len(terms), tc.distinct)
			}
			resp, err := http.Get(ts.URL + "/api/search?" + url.Values{"q": {q}}.Encode())
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch {
			case tc.wantErr == "" && resp.StatusCode != http.StatusOK:
				t.Fatalf("status %d, body %s; want 200", resp.StatusCode, body)
			case tc.wantErr != "" && (resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), tc.wantErr)):
				t.Fatalf("status %d, body %s; want a 400 saying %q", resp.StatusCode, body, tc.wantErr)
			}
		})
	}
}
