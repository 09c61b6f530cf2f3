package server

// This file is the admission-control half of the middleware chain: the
// paper's servlet tier is supposed to absorb event taps from every
// browsing user, but real archive traffic is dominated by bursty robot
// crawls that look nothing like human sessions — an undefended
// /api/event path queues unboundedly and then sheds data silently
// (the event queue drops its *oldest* entry on overflow). The chain
// refuses excess work early and loudly instead:
//
//  1. a per-client token bucket (keyed by the user id param when
//     present, else the remote address) turns a crawler's burst into
//     429s while humans sail through;
//  2. a global in-flight cap bounds concurrent request work regardless
//     of who sends it (503);
//  3. write endpoints are shed with 503 when the background event queue
//     is 90 % full, so the publish pipeline degrades by refusing new
//     ingest rather than by dropping archived events.
//
// Ops endpoints (/metrics, /api/status) bypass all three: an operator
// must be able to see a melting server.

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"memex/internal/core"
)

// Config holds a deployment's capacity settings. Everything else about
// admission is one policy that every server applies, whatever its Config:
// write endpoints are shed with 503 once the background event queue is
// shedQueueFraction full. The zero value adds no rate limit and no
// in-flight cap.
type Config struct {
	// RatePerSec is the per-client steady-state request rate; 0 disables
	// rate limiting. Clients are keyed by the `user` query parameter when
	// present, else by remote host.
	RatePerSec float64
	// MaxInFlight caps concurrently served requests across all clients;
	// 0 disables the cap. Ops endpoints are exempt.
	MaxInFlight int

	// now is the limiter refill and latency clock, time.Now when nil; set
	// only by this package's tests.
	now func() time.Time
}

// shedQueueFraction is the event-queue fill at which write endpoints are
// shed: 3 687 queued events of the engine's 4 096.
const shedQueueFraction = 0.9

// withDefaults fills the unset test-only clock.
func (c Config) withDefaults() Config {
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// routeClass picks which admission checks a route is subject to.
type routeClass int

const (
	// readRoute: rate limit and in-flight cap, never pressure-shed
	// (reads don't feed the publish pipeline).
	readRoute routeClass = iota
	// writeRoute: everything, including backpressure shedding.
	writeRoute
	// opsRoute: observability endpoints, exempt from all admission.
	opsRoute
)

// --- token-bucket limiter ---

// limiterMaxClients bounds the bucket map; at the cap, fully refilled
// (idle) buckets are swept before admitting a new client key.
const limiterMaxClients = 1 << 16

type bucket struct {
	tokens float64
	last   time.Time
}

// limiter is a per-client token bucket map. One mutex guards the map;
// each allow() is O(1), and the sweep is a single non-blocking pass.
type limiter struct {
	rate  float64
	burst float64
	now   func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
}

// bucketDepth is the token-bucket depth for a per-client rate, the
// instantaneous excursion above it: two seconds' worth, at least 8.
func bucketDepth(rate float64) int {
	return max(8, int(2*rate))
}

func newLimiter(rate float64, burst int, now func() time.Time) *limiter {
	return &limiter{rate: rate, burst: float64(burst), now: now, buckets: map[string]*bucket{}}
}

// allow spends one token from key's bucket, refilling first by elapsed
// wall time. A brand-new client starts with a full bucket.
func (l *limiter) allow(key string) bool {
	t := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buckets[key]
	if b == nil {
		if len(l.buckets) >= limiterMaxClients {
			l.sweepLocked(t)
		}
		b = &bucket{tokens: l.burst, last: t}
		l.buckets[key] = b
	} else if dt := t.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(l.burst, b.tokens+dt*l.rate)
		b.last = t
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// sweepLocked drops buckets that have refilled to full — clients idle
// long enough that forgetting them is indistinguishable from keeping
// them. Caller holds l.mu.
func (l *limiter) sweepLocked(t time.Time) {
	for k, b := range l.buckets {
		if math.Min(l.burst, b.tokens+t.Sub(b.last).Seconds()*l.rate) >= l.burst {
			delete(l.buckets, k)
		}
	}
}

// clientKey identifies the requester for rate limiting: the user id
// param when the endpoint carries one (one browsing user = one bucket,
// however many NATed addresses they arrive from), else the remote host.
func clientKey(r *http.Request) string {
	if u := r.URL.Query().Get("user"); u != "" {
		return "u:" + u
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// --- adaptive Retry-After ---

// Retry-After clamps: never below 1s (the old constant, and the floor
// HTTP date-less hints make sense at), never above 60s (past a minute
// the estimate is noise and a well-behaved client should just poll).
const (
	minRetryAfterSec = 1
	maxRetryAfterSec = 60
)

// drainEstimator turns successive Pressure samples into an event-queue
// drain-rate estimate, so a shed response can tell the client *when*
// the queue is likely to be back under its admission threshold instead
// of the flat "1" that made every robot in a fleet retry in lockstep
// one second later. Every write request observes the queue depth it
// just read (admitted or shed — rejected traffic is exactly when the
// estimate matters), and the rate is an EWMA of depth deltas per
// second, positive while draining.
type drainEstimator struct {
	mu        sync.Mutex
	valid     bool
	lastT     time.Time
	lastDepth int
	// rate is the smoothed drain rate in events/sec; negative while the
	// queue is growing.
	rate float64
	// seeded flips after the first rate sample (the EWMA needs a base).
	seeded bool
}

// observe feeds one (depth, now) sample. Same-instant samples (burst
// arrivals inside one clock tick) are skipped rather than dividing by
// zero or spiking the rate.
func (d *drainEstimator) observe(depth int, t time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.valid {
		d.valid, d.lastT, d.lastDepth = true, t, depth
		return
	}
	dt := t.Sub(d.lastT).Seconds()
	if dt <= 0 {
		return
	}
	inst := float64(d.lastDepth-depth) / dt
	if !d.seeded {
		d.rate, d.seeded = inst, true
	} else {
		d.rate = 0.5*inst + 0.5*d.rate
	}
	d.lastT, d.lastDepth = t, depth
}

// retryAfter estimates the seconds until a queue at depth drains to
// target (the admission threshold), clamped to [1s, 60s]. With no rate
// estimate yet the old constant 1 stands; a non-draining (growing)
// queue pins to the max — telling a client to come back in a second
// while the queue climbs is how retry storms start.
func (d *drainEstimator) retryAfter(depth, target int) int {
	d.mu.Lock()
	rate, seeded := d.rate, d.seeded
	d.mu.Unlock()
	excess := depth - target
	if excess <= 0 {
		return minRetryAfterSec
	}
	if !seeded {
		return minRetryAfterSec
	}
	if rate <= 0 {
		return maxRetryAfterSec
	}
	secs := int(math.Ceil(float64(excess) / rate))
	if secs < minRetryAfterSec {
		return minRetryAfterSec
	}
	if secs > maxRetryAfterSec {
		return maxRetryAfterSec
	}
	return secs
}

// shedTarget is the queue depth below which writes are admitted again —
// the re-entry point a shed client should aim its retry at.
func shedTarget(p core.Pressure) int {
	if p.QueueCap <= 0 {
		return 0
	}
	return int(shedQueueFraction * float64(p.QueueCap))
}

// shedReason decides whether a write request should be refused under
// the current queue depth; "" admits. Pure function of its inputs so the
// threshold is unit-testable.
func shedReason(p core.Pressure) string {
	if p.QueueCap > 0 && float64(p.QueueDepth) >= shedQueueFraction*float64(p.QueueCap) {
		return rejectQueue
	}
	return ""
}

// handle registers pattern on the mux wrapped in the full middleware
// chain: admission first (cheap, before any handler work), then the
// handler, then the one place a reply is committed — Content-Type, status
// and body written once each, so the code instrumented is the code sent.
func (s *Server) handle(pattern string, class routeClass, h handler) {
	em := s.metrics.register(pattern)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := s.cfg.now()
		em.requests.Add(1)
		n := s.metrics.inFlight.Add(1)
		defer s.metrics.inFlight.Add(-1)

		code, rep := 0, reply{} // code 0: admitted
		if class != opsRoute {
			if s.limiter != nil && !s.limiter.allow(clientKey(r)) {
				code, rep = s.reject(w, em, rejectRate, minRetryAfterSec,
					fmt.Errorf("rate limit exceeded"))
			} else if s.cfg.MaxInFlight > 0 && n > int64(s.cfg.MaxInFlight) {
				code, rep = s.reject(w, em, rejectInFlight, minRetryAfterSec,
					fmt.Errorf("server at capacity (%d requests in flight)", s.cfg.MaxInFlight))
			} else if class == writeRoute {
				p := s.pressure()
				s.drain.observe(p.QueueDepth, start)
				if reason := shedReason(p); reason != "" {
					retry := s.drain.retryAfter(p.QueueDepth, shedTarget(p))
					code, rep = s.reject(w, em, reason, retry,
						fmt.Errorf("overloaded (%s): retry later", reason))
				}
			}
		}
		if code == 0 {
			code, rep = answer(h, r)
		}
		w.Header().Set("Content-Type", rep.contentType)
		w.WriteHeader(code)
		w.Write(rep.body) // a failed write means the client is gone: nobody left to tell
		em.observe(code, s.cfg.now().Sub(start))
	})
}

// reject refuses a request with the admission-control envelope, and is
// the only producer of a 429 or 503: the refusal is counted per reason
// and carries Retry-After so well-behaved clients back off —
// drain-rate-derived for pressure sheds, the 1s floor otherwise.
func (s *Server) reject(w http.ResponseWriter, em *endpointMetrics, reason string, retryAfterSec int, err error) (int, reply) {
	em.rejected[reason].Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSec))
	if reason == rejectRate {
		return http.StatusTooManyRequests, errorReply(err)
	}
	return http.StatusServiceUnavailable, errorReply(err)
}
