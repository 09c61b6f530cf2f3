package server

import (
	"strings"
	"testing"
	"time"

	"memex/internal/core"
)

func TestHistogramBucketMath(t *testing.T) {
	var h histogram
	cases := []struct {
		d    time.Duration
		want int // bucket index
	}{
		{50 * time.Microsecond, 0},  // under the first bound
		{100 * time.Microsecond, 0}, // exactly the first bound (le is inclusive)
		{101 * time.Microsecond, 1}, // just over
		{150 * time.Microsecond, 1}, // inside the second bucket
		{1 * time.Millisecond, 4},   // 100µs ×2⁴ = 1.6ms bound covers 1ms... check below
		{10 * time.Second, 17},      // near the top bound (13.1072s)
		{1 * time.Minute, 18},       // +Inf overflow
	}
	for _, tc := range cases {
		h.observe(tc.d)
	}
	// Independently derive the expected index for each case.
	for _, tc := range cases {
		want := 0
		for want < len(latencyBuckets) && tc.d > latencyBuckets[want] {
			want++
		}
		if want != tc.want {
			t.Fatalf("test table self-check: %v expects bucket %d, table says %d", tc.d, want, tc.want)
		}
	}
	counts := map[int]uint64{}
	for _, tc := range cases {
		counts[tc.want]++
	}
	for i := range h.buckets {
		if got := h.buckets[i].Load(); got != counts[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, got, counts[i])
		}
	}
	if h.count.Load() != uint64(len(cases)) {
		t.Fatalf("count = %d, want %d", h.count.Load(), len(cases))
	}
	var wantSum int64
	for _, tc := range cases {
		wantSum += int64(tc.d)
	}
	if h.sumNanos.Load() != wantSum {
		t.Fatalf("sum = %dns, want %dns", h.sumNanos.Load(), wantSum)
	}
}

func TestHistogramBucketBoundsAreLogSpaced(t *testing.T) {
	if latencyBuckets[0] != 100*time.Microsecond {
		t.Fatalf("first bound = %v, want 100µs", latencyBuckets[0])
	}
	for i := 1; i < len(latencyBuckets); i++ {
		if latencyBuckets[i] != 2*latencyBuckets[i-1] {
			t.Fatalf("bounds not ×2 log-spaced at %d: %v after %v", i, latencyBuckets[i], latencyBuckets[i-1])
		}
	}
}

// TestHistogramRenderCumulative checks the Prometheus rendering: bucket
// lines must be cumulative and end with +Inf == _count.
func TestHistogramRenderCumulative(t *testing.T) {
	m := newMetricsSet()
	em := m.register("GET /x")
	em.latency.observe(50 * time.Microsecond)  // bucket 0
	em.latency.observe(150 * time.Microsecond) // bucket 1
	em.latency.observe(time.Minute)            // +Inf
	var sb strings.Builder
	m.writeHTTPMetrics(&sb)
	out := sb.String()
	for _, want := range []string{
		`memex_http_request_duration_seconds_bucket{endpoint="GET /x",le="0.0001"} 1`,
		`memex_http_request_duration_seconds_bucket{endpoint="GET /x",le="0.0002"} 2`,
		`memex_http_request_duration_seconds_bucket{endpoint="GET /x",le="13.1072"} 2`,
		`memex_http_request_duration_seconds_bucket{endpoint="GET /x",le="+Inf"} 3`,
		`memex_http_request_duration_seconds_count{endpoint="GET /x"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered metrics missing %q", want)
		}
	}
}

// fakeClock is a manually advanced time source for limiter tests.
type fakeClock struct {
	t time.Time
}

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

func TestLimiterRefill(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	l := newLimiter(1, 2, clk.now) // 1 token/s, burst 2

	// Fresh client starts with a full bucket: burst of 2, then dry.
	if !l.allow("a") || !l.allow("a") {
		t.Fatal("burst tokens refused")
	}
	if l.allow("a") {
		t.Fatal("empty bucket granted a token")
	}
	// Half a second refills half a token: still dry.
	clk.advance(500 * time.Millisecond)
	if l.allow("a") {
		t.Fatal("half-refilled bucket granted a token")
	}
	// Another 600ms crosses one whole token.
	clk.advance(600 * time.Millisecond)
	if !l.allow("a") {
		t.Fatal("refilled token refused")
	}
	if l.allow("a") {
		t.Fatal("second token granted after one second of refill")
	}
	// A long idle period refills to burst, never beyond.
	clk.advance(time.Hour)
	if !l.allow("a") || !l.allow("a") {
		t.Fatal("burst tokens refused after idle")
	}
	if l.allow("a") {
		t.Fatal("bucket refilled beyond burst")
	}
	// Other clients have independent buckets.
	if !l.allow("b") {
		t.Fatal("independent client throttled")
	}
}

func TestLimiterSweepDropsIdleClients(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	l := newLimiter(1, 1, clk.now)
	if !l.allow("idle") {
		t.Fatal("first token refused")
	}
	// After a full refill the idle bucket is forgettable.
	clk.advance(10 * time.Second)
	l.sweepLocked(clk.now())
	if len(l.buckets) != 0 {
		t.Fatalf("sweep kept %d idle buckets", len(l.buckets))
	}
	// A still-draining bucket survives the sweep.
	if !l.allow("busy") {
		t.Fatal("token refused")
	}
	l.sweepLocked(clk.now())
	if len(l.buckets) != 1 {
		t.Fatalf("sweep dropped a non-refilled bucket (%d left)", len(l.buckets))
	}
}

func TestShedReason(t *testing.T) {
	cases := []struct {
		name string
		p    core.Pressure
		want string
	}{
		{"zero config sheds at 0.9", core.Pressure{QueueDepth: 100, QueueCap: 100, FoldLag: 1e6}, rejectQueue},
		{"queue under threshold", core.Pressure{QueueDepth: 89, QueueCap: 100}, ""},
		{"queue at threshold", core.Pressure{QueueDepth: 90, QueueCap: 100}, rejectQueue},
		{"queue full", core.Pressure{QueueDepth: 100, QueueCap: 100}, rejectQueue},
	}
	for _, tc := range cases {
		if got := shedReason(tc.p); got != tc.want {
			t.Errorf("%s: shedReason = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	if (Config{}).withDefaults().now == nil {
		t.Fatal("now not defaulted")
	}
	// The bucket depth is derived from the rate: 2×rate, floored at 8.
	cases := []struct {
		rate float64
		want int
	}{{0.001, 8}, {2, 8}, {4, 8}, {4.5, 9}, {100, 200}}
	for _, tc := range cases {
		if got := bucketDepth(tc.rate); got != tc.want {
			t.Errorf("bucketDepth(%v) = %d, want %d", tc.rate, got, tc.want)
		}
	}
}
