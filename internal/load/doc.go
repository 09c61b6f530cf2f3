// Package load is the synthetic workload harness that turns the
// ROADMAP's "production scale" slogan into a measured SLO: it drives a
// live memexd over the real HTTP client with traffic modeled on "Access
// Patterns for Robots and Humans in Web Archives" (PAPERS.md), times
// every request it sends, and judges the run on those samples.
//
// # Scenario format
//
// A Scenario is a deterministic population of clients replayed against
// one target:
//
//   - Humans are browsing sessions: each issues a request, thinks for
//     an exponentially distributed pause (mean HumanThink), and repeats
//     until the scenario Duration elapses. Page choice is Zipfian
//     (rand.Zipf with ZipfS/ZipfV over the page universe, index 0 most
//     popular), successive visits carry the previous page as referrer
//     (trail evidence), and a HumanSearchFrac slice of actions are
//     ranked-search reads instead of visit writes.
//   - Robots are bursty crawlers: RobotBurst sequential page visits
//     RobotGap apart, then RobotIdle of silence, repeated. Sequential —
//     not Zipfian — because archive robots walk the namespace; this is
//     what makes them pathological for caches tuned to humans.
//   - The monitor is a dashboard stand-in polling GET /api/status every
//     MonitorEvery; its samples anchor the p99 status-read SLO.
//
// Schedule(seed) expands a Scenario into a flat, sorted request list.
// The expansion is pure: same scenario + same seed = byte-identical
// schedule (the CI determinism gate), independent of wall clock, host,
// or prior runs. Pinned scenarios live in Lookup; "ci-small" is the one
// the CI slo job replays on every push.
//
// # SLO budgets
//
// Run executes the schedule with one goroutine per client, times each
// request at the client from send to reply, and distills a Report: one
// row per request kind, named by Kind.String() ("search", "status",
// "visit"), with its count, its 4xx and 5xx answers, and p50/p99/p999
// by nearest rank over every sample — the rule bench's
// client.<kind>_p99_ms figures use, so both reports give one number one
// definition. Client-side time includes the transport, so it is never
// below what the server's own latency histograms see. Write/read
// accounting classifies each answer from the typed client.APIError, and
// the dropped-event count is the /api/status EventsDropped delta across
// the run. Evaluate applies a Budget:
//
//   - P99StatusReadMs: the p99 of status reads over the run must stay
//     under budget (0 skips the check; a run with zero status samples
//     fails it — an unmeasured SLO is a violated SLO).
//   - MaxLost: writes not answered 2xx and not politely shed with
//     429/503 are lost; the default CI budget is zero.
//   - Max5xx: 5xx responses that are not admission sheds (no
//     Retry-After) are server faults; default budget zero.
//   - Any shed missing its Retry-After header is always a violation:
//     backpressure the client cannot obey is not backpressure.
//
// # Reproducing the CI slo job locally
//
//	go build -o /tmp/memexd ./cmd/memexd
//	/tmp/memexd -addr :8600 -dir /tmp/memex-slo -seed 7 -rate 50 -inflight 128 &
//	go run ./cmd/memexload -target http://localhost:8600 -scenario ci-small \
//	    -seed 1 -world-seed 7 -slo-p99-status 750ms -out LOAD_local.json
//
// memexload exits 1 on budget violations and writes the same
// LOAD_<date>_<sha>.json report the CI job does. `-print-schedule` dumps
// the expanded schedule without touching the server (run it twice to see
// the determinism contract hold).
package load
