package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"memex/internal/core"
)

// TestDrainEstimator pins the hint math on a fake clock: unseeded runs
// answer the 1s floor, a measured drain rate turns into
// ceil(excess/rate), a growing queue pins to the 60s ceiling, and
// same-instant samples never divide by zero.
func TestDrainEstimator(t *testing.T) {
	t0 := time.Unix(5000, 0)
	var d drainEstimator

	if got := d.retryAfter(100, 50); got != 1 {
		t.Fatalf("unseeded hint = %d, want 1", got)
	}

	d.observe(1000, t0)
	if got := d.retryAfter(1000, 500); got != 1 {
		t.Fatalf("one-sample hint = %d, want 1 (no rate yet)", got)
	}

	// 1000 → 900 over 1s: rate seeds at 100/s; 400 excess drains in 4s.
	d.observe(900, t0.Add(1*time.Second))
	if got := d.retryAfter(900, 500); got != 4 {
		t.Fatalf("seeded hint = %d, want 4", got)
	}

	// Same-instant burst arrival: skipped, rate unchanged.
	d.observe(1, t0.Add(1*time.Second))
	if got := d.retryAfter(900, 500); got != 4 {
		t.Fatalf("same-instant sample moved the rate: hint %d, want 4", got)
	}

	// 900 → 880 over 1s: instant 20/s, EWMA (20+100)/2 = 60/s.
	d.observe(880, t0.Add(2*time.Second))
	if got := d.retryAfter(880, 820); got != 1 {
		t.Fatalf("small-excess hint = %d, want 1 (ceil(60/60))", got)
	}

	// Queue reverses and grows: the rate goes negative and the hint pins
	// to the ceiling — "come back in 1s" while climbing is a retry storm.
	d.observe(2000, t0.Add(3*time.Second))
	if got := d.retryAfter(2000, 500); got != maxRetryAfterSec {
		t.Fatalf("growing-queue hint = %d, want %d", got, maxRetryAfterSec)
	}

	// At or under the threshold there is nothing to wait for.
	if got := d.retryAfter(400, 500); got != 1 {
		t.Fatalf("under-threshold hint = %d, want 1", got)
	}

	// A glacial drain clamps to the ceiling instead of quoting hours.
	var slow drainEstimator
	slow.observe(10000, t0)
	slow.observe(9999, t0.Add(1*time.Second))
	if got := slow.retryAfter(9999, 100); got != maxRetryAfterSec {
		t.Fatalf("glacial-drain hint = %d, want %d", got, maxRetryAfterSec)
	}
}

// TestAdaptiveRetryAfterOverHTTP drives shed writes through the full
// middleware chain on a fake clock and a synthetic pressure sequence,
// asserting the Retry-After header tracks the observed drain rate
// instead of the old constant "1".
func TestAdaptiveRetryAfterOverHTTP(t *testing.T) {
	clk := &fakeClock{t: time.Unix(3000, 0)}
	srv := New(newTestEngine(t), Config{now: clk.now})

	depths := []int{930, 920, 918, 935}
	var call int
	srv.pressure = func() core.Pressure {
		p := core.Pressure{QueueDepth: depths[call], QueueCap: 1000}
		call++
		return p
	}

	ts := httptest.NewServer(srv)
	defer ts.Close()

	// target = 0.9×1000 = 900; every depth above sheds. Expected hints:
	// first sample unseeded → "1"; 930→920 over 1s seeds 10/s, excess 20
	// → "2"; 920→918 gives EWMA (2+10)/2 = 6/s, excess 18 → "3"; then the
	// queue grows → ceiling.
	want := []string{"1", "2", "3", "60"}
	for i, w := range want {
		resp, err := http.Post(ts.URL+"/api/event", "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("request %d: status %d, want 503", i, resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != w {
			t.Fatalf("request %d: Retry-After %q, want %q", i, got, w)
		}
		clk.advance(1 * time.Second)
	}

	// Non-pressure rejections keep the flat 1s floor: the drain
	// estimator knows nothing about token buckets.
	clk2 := &fakeClock{t: time.Unix(4000, 0)}
	srv2 := New(newTestEngine(t), Config{RatePerSec: 0.001, now: clk2.now})
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	depth := bucketDepth(0.001)
	for i := 0; i <= depth; i++ {
		resp, err := http.Get(ts2.URL + "/api/themes?user=9")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if i == depth {
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("status %d, want 429", resp.StatusCode)
			}
			if got := resp.Header.Get("Retry-After"); got != "1" {
				t.Fatalf("rate-limit Retry-After %q, want \"1\"", got)
			}
		}
	}
}
