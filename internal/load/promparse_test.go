package load

import (
	"bytes"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"memex/internal/client"
	"memex/internal/core"
	"memex/internal/kvstore"
	"memex/internal/server"
)

// TestQuantileEstimation is the table the SLO gate's math stands on:
// hand-built cumulative `le` series with known answers, covering exact
// bucket boundaries, empty histograms, single-bucket mass, and the
// +Inf clamp that keeps p999 finite.
func TestQuantileEstimation(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name    string
		buckets []Bucket
		q       float64
		want    float64
	}{
		{
			// Rank lands exactly on a bucket's cumulative count: the
			// estimate is exactly that bucket's upper bound, no
			// interpolation drift in either direction.
			name:    "exact boundary low",
			buckets: []Bucket{{0.1, 10}, {0.2, 20}, {0.4, 40}, {inf, 40}},
			q:       0.25,
			want:    0.1,
		},
		{
			name:    "exact boundary mid",
			buckets: []Bucket{{0.1, 10}, {0.2, 20}, {0.4, 40}, {inf, 40}},
			q:       0.5,
			want:    0.2,
		},
		{
			// Halfway through the last bucket's mass: linear
			// interpolation inside [0.2, 0.4].
			name:    "interpolated",
			buckets: []Bucket{{0.1, 10}, {0.2, 20}, {0.4, 40}, {inf, 40}},
			q:       0.75,
			want:    0.3,
		},
		{
			name:    "empty histogram",
			buckets: []Bucket{{0.1, 0}, {0.2, 0}, {inf, 0}},
			q:       0.99,
			want:    0,
		},
		{
			// All mass in one interior bucket: every quantile
			// interpolates inside it, from its lower to its upper bound.
			name:    "single bucket mass median",
			buckets: []Bucket{{0.1, 0}, {0.2, 30}, {inf, 30}},
			q:       0.5,
			want:    0.15,
		},
		{
			name:    "single bucket mass p999",
			buckets: []Bucket{{0.1, 0}, {0.2, 30}, {inf, 30}},
			q:       0.999,
			want:    0.1 + 0.1*(0.999*30)/30,
		},
		{
			// Mass beyond the last finite bound: the histogram cannot
			// resolve it, so the estimate clamps to the highest finite
			// bound instead of reporting +Inf (which would void every
			// budget comparison).
			name:    "p999 clamps at overflow bucket",
			buckets: []Bucket{{0.1, 5}, {0.2, 5}, {inf, 10}},
			q:       0.999,
			want:    0.2,
		},
		{
			name:    "all mass in overflow",
			buckets: []Bucket{{0.1, 0}, {0.2, 0}, {inf, 7}},
			q:       0.5,
			want:    0.2,
		},
		{
			// First bucket: interpolation starts from 0, not from some
			// phantom negative bound.
			name:    "first bucket from zero",
			buckets: []Bucket{{0.1, 10}, {0.2, 10}, {inf, 10}},
			q:       0.5,
			want:    0.05,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := Histogram{Buckets: tc.buckets}
			got := h.Quantile(tc.q)
			if math.Abs(got-tc.want) > 1e-9 {
				t.Fatalf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
			}
		})
	}
}

func TestQuantileMonotone(t *testing.T) {
	h := Histogram{Buckets: []Bucket{{0.001, 3}, {0.01, 40}, {0.1, 90}, {1, 99}, {math.Inf(1), 100}}}
	prev := 0.0
	for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.99, 0.999} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantiles not monotone: q=%v gave %v after %v", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramSub(t *testing.T) {
	inf := math.Inf(1)
	now := Histogram{Buckets: []Bucket{{0.1, 50}, {0.2, 90}, {inf, 100}}, Count: 100, Sum: 12}
	prev := Histogram{Buckets: []Bucket{{0.1, 40}, {0.2, 60}, {inf, 60}}, Count: 60, Sum: 8}
	d := now.Sub(prev)
	want := []Bucket{{0.1, 10}, {0.2, 30}, {inf, 40}}
	for i, b := range d.Buckets {
		if b != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, b, want[i])
		}
	}
	if d.Count != 40 || d.Sum != 4 {
		t.Fatalf("count/sum delta = %v/%v, want 40/4", d.Count, d.Sum)
	}
	// A server restart mid-run (counters reset) clamps to zero rather
	// than reporting negative mass.
	d = prev.Sub(now)
	for _, b := range d.Buckets {
		if b.Cum != 0 {
			t.Fatalf("restart delta not clamped: %+v", b)
		}
	}
}

func TestParseMetricsBasics(t *testing.T) {
	text := `# HELP memex_http_requests_total Requests.
# TYPE memex_http_requests_total counter
memex_http_requests_total{endpoint="GET /api/status"} 7
memex_http_requests_total{endpoint="POST /api/event"} 3
memex_http_in_flight 2
memex_http_request_duration_seconds_bucket{endpoint="GET /api/status",le="0.0001"} 1
memex_http_request_duration_seconds_bucket{endpoint="GET /api/status",le="+Inf"} 7
memex_http_request_duration_seconds_sum{endpoint="GET /api/status"} 0.5
memex_http_request_duration_seconds_count{endpoint="GET /api/status"} 7
`
	s, err := ParseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Value("memex_http_requests_total", map[string]string{"endpoint": "GET /api/status"}); !ok || v != 7 {
		t.Fatalf("status requests = %v,%v", v, ok)
	}
	if v, ok := s.Value("memex_http_in_flight", nil); !ok || v != 2 {
		t.Fatalf("in_flight = %v,%v", v, ok)
	}
	eps := s.LabelValues("memex_http_requests_total", "endpoint")
	if len(eps) != 2 || eps[0] != "GET /api/status" || eps[1] != "POST /api/event" {
		t.Fatalf("endpoints = %v", eps)
	}
	h, ok := s.Histogram("memex_http_request_duration_seconds", map[string]string{"endpoint": "GET /api/status"})
	if !ok || len(h.Buckets) != 2 || h.Count != 7 || h.Sum != 0.5 {
		t.Fatalf("histogram = %+v ok=%v", h, ok)
	}
	if !math.IsInf(h.Buckets[1].LE, 1) {
		t.Fatalf("last bucket bound = %v, want +Inf", h.Buckets[1].LE)
	}

	if _, err := ParseMetrics(strings.NewReader("garbage without value\n")); err == nil {
		t.Fatal("malformed line parsed silently")
	}
}

// TestParseMetricsExpositionForms: a trailing comma in a label block, an
// empty block and a sample timestamp are valid exposition lines; a label
// block whose pairs run together, a non-integer timestamp and a third
// field are not.
func TestParseMetricsExpositionForms(t *testing.T) {
	for _, c := range []struct {
		line   string
		labels map[string]string
	}{
		{`m{a="1",} 5`, map[string]string{"a": "1"}},
		{`m{a="1", b="2" ,} 5`, map[string]string{"a": "1", "b": "2"}},
		{`m{} 5`, map[string]string{}},
		{`m 5 1700000000`, map[string]string{}},
		{`m{a="1"} 5 -1700000000`, map[string]string{"a": "1"}},
	} {
		s, err := ParseMetrics(strings.NewReader(c.line + "\n"))
		if err != nil {
			t.Fatalf("%s: %v", c.line, err)
		}
		got := s.Samples[0]
		if len(s.Samples) != 1 || got.Name != "m" || got.Value != 5 || len(got.Labels) != len(c.labels) {
			t.Fatalf("%s parsed as %+v", c.line, s.Samples)
		}
		for k, v := range c.labels {
			if got.Labels[k] != v {
				t.Fatalf("%s: label %s = %q, want %q", c.line, k, got.Labels[k], v)
			}
		}
	}
	for _, line := range []string{`m{a="1"b="2"} 5`, `m 5 1.5`, `m 5 1700000000 7`, `m{a="1",,} 5`} {
		if _, err := ParseMetrics(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("%s parsed", line)
		}
	}
}

// renderedMetrics is a /metrics page as internal/server renders it, after
// a few requests, so every family and a latency histogram have samples.
func renderedMetrics(tb testing.TB) string {
	h := server.New(newTestEngine(tb))
	for _, path := range []string{"/api/status", "/api/status", "/api/search?user=1&q=alpha", "/api/status?user=x"} {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", path, nil))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	return rec.Body.String()
}

// FuzzParseMetrics: no input panics the parser. The page internal/server
// renders parses back sample for sample: one a line, the name before the
// label block, as many labels as the line has pairs, the value its last
// field. And every histogram any input parses to answers each quantile
// within [0, its highest finite bound], never less for a larger q.
func FuzzParseMetrics(f *testing.F) {
	page := renderedMetrics(f)
	s, err := ParseMetrics(strings.NewReader(page))
	if err != nil {
		f.Fatalf("the rendered page does not parse: %v", err)
	}
	i := 0
	for _, line := range strings.Split(page, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i >= len(s.Samples) {
			f.Fatalf("line %q has no sample", line)
		}
		got := s.Samples[i]
		name, _, _ := strings.Cut(strings.Fields(line)[0], "{")
		fields := strings.Fields(line)
		value, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		sameValue := got.Value == value || math.IsNaN(got.Value) && math.IsNaN(value)
		if err != nil || got.Name != name || !sameValue || len(got.Labels) != strings.Count(line, `="`) {
			f.Fatalf("line %q parsed as %+v", line, got)
		}
		i++
	}
	if i != len(s.Samples) || i == 0 {
		f.Fatalf("%d sample lines, %d samples", i, len(s.Samples))
	}
	f.Add([]byte(page))
	for _, seed := range []string{
		"m{a=\"1\",} 5\nm{} 5\nm 5 1700000000\n",
		"h_bucket{le=\"0.1\"} 3\nh_bucket{le=\"0.2\"} 1\nh_bucket{le=\"+Inf\"} 9\n",
		"h_bucket{le=\"-1\"} 3\nh_bucket{le=\"NaN\"} NaN\nh_bucket{le=\"+Inf\"} -4\n",
		"m{a=\"\\\"} 1\n",
	} {
		f.Add([]byte(seed))
	}
	qs := []float64{0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}
	f.Fuzz(func(t *testing.T, in []byte) {
		s, err := ParseMetrics(bytes.NewReader(in))
		if err != nil {
			return
		}
		for _, sm := range s.Samples {
			base, ok := strings.CutSuffix(sm.Name, "_bucket")
			if !ok {
				continue
			}
			labels := map[string]string{}
			for k, v := range sm.Labels {
				if k != "le" {
					labels[k] = v
				}
			}
			h, ok := s.Histogram(base, labels)
			if !ok {
				continue
			}
			hi := 0.0
			for _, b := range h.Buckets {
				if !math.IsInf(b.LE, 1) {
					hi = math.Max(hi, b.LE)
				}
			}
			prev := 0.0
			for _, q := range qs {
				v := h.Quantile(q)
				if !(v >= prev && v <= hi) {
					t.Fatalf("%s%v: Quantile(%v) = %v after %v, bounds [0, %v]; buckets %+v", base, labels, q, v, prev, hi, h.Buckets)
				}
				prev = v
			}
		}
	})
}

type stubSource struct{}

func (stubSource) Lookup(url string) (core.Content, bool) {
	return core.Content{URL: url, Title: "t", Text: "alpha beta gamma delta"}, true
}

func newTestEngine(t testing.TB) *core.Engine {
	t.Helper()
	e, err := core.Open(core.Config{
		Dir:    t.TempDir(),
		Source: stubSource{},
		KV:     kvstore.Options{Sync: kvstore.SyncGroup},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestScrapeRoundTrip parses a real /metrics page fetched through
// client.Metrics() — the exact bytes the production collector reads —
// and checks the reconstructed histogram is coherent: cumulative,
// totals matching the request counter, quantiles ordered.
func TestScrapeRoundTrip(t *testing.T) {
	e := newTestEngine(t)
	ts := httptest.NewServer(server.New(e))
	defer ts.Close()
	cl := client.New(ts.URL)

	const statusReads = 5
	for i := 0; i < statusReads; i++ {
		if _, err := cl.Status(); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Visit(1, "http://x.example.org/", "", time.Now(), "community"); err != nil {
		t.Fatal(err)
	}

	text, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatalf("real scrape failed to parse: %v", err)
	}
	l := map[string]string{"endpoint": "GET /api/status"}
	h, ok := s.Histogram("memex_http_request_duration_seconds", l)
	if !ok {
		t.Fatal("no status histogram in scrape")
	}
	if h.Total() != statusReads || h.Count != statusReads {
		t.Fatalf("histogram total/count = %v/%v, want %d", h.Total(), h.Count, statusReads)
	}
	reqs, _ := s.Value("memex_http_requests_total", l)
	if reqs != statusReads {
		t.Fatalf("requests counter %v != %d", reqs, statusReads)
	}
	// The series must be cumulative (non-decreasing) with ascending
	// bounds — the property quantile interpolation assumes.
	for i := 1; i < len(h.Buckets); i++ {
		if h.Buckets[i].Cum < h.Buckets[i-1].Cum || h.Buckets[i].LE <= h.Buckets[i-1].LE {
			t.Fatalf("bucket %d not cumulative/ascending: %+v after %+v", i, h.Buckets[i], h.Buckets[i-1])
		}
	}
	p50, p99, p999 := h.Quantile(0.5), h.Quantile(0.99), h.Quantile(0.999)
	if p50 <= 0 || p50 > p99 || p99 > p999 {
		t.Fatalf("quantiles incoherent: p50=%v p99=%v p999=%v", p50, p99, p999)
	}
}
