// Package server exposes the Memex engine over HTTP as the paper's
// servlets do (§2-3): all client/server interaction tunnels over plain
// HTTP with JSON bodies so that firewalls, proxies and ISP restrictions
// never block the applet. UI-triggered endpoints (event logging, folder
// edits) do only foreground work and return immediately; mining results
// are served from the demons' published state.
//
// # Observability and admission control
//
// Every route is wrapped in a middleware chain (middleware.go,
// metrics.go). GET /metrics serves Prometheus text format with zero
// module dependencies:
//
//   - memex_http_requests_total{endpoint}, memex_http_errors_total
//     {endpoint,class}, memex_http_rejected_total{endpoint,reason},
//     memex_http_in_flight, and per-endpoint latency histograms
//     memex_http_request_duration_seconds{endpoint} with fixed
//     log-spaced buckets (100µs ×2 … ~13s);
//   - engine gauges wired from core.Stats: memex_engine_queue_depth /
//     _capacity / events_dropped_total, memex_version_watermark /
//     _pinned / _fold_lag_epochs / gc_reclaimed_total /
//     fold_errors_total,
//     memex_cache_hit_ratio / _bytes / evicted_total{cause}, and the
//     link-graph/disk gauges.
//
// Admission control is configured through Config (all knobs default
// off): RatePerSec+Burst run a per-client token bucket (keyed by the
// `user` param, else remote host) answering 429; MaxInFlight caps
// global concurrency with 503; ShedQueueFraction and ShedFoldLag shed
// write endpoints with 503 while the background event queue or the
// fold watermark lag say the publish pipeline is backed up. /metrics
// and /api/status are exempt so operators can always see in.
//
// Routing gotcha: the mux below registers method-qualified patterns
// ("POST /api/user", "GET /api/search", ...), which require the enhanced
// net/http ServeMux shipped in Go 1.22 — and the enhancement is gated on
// the *module's* `go` directive, not just the toolchain. If go.mod ever
// drops below `go 1.22`, these strings silently become literal paths,
// every endpoint 404s, and the internal/client e2e tests all fail while
// this package still compiles cleanly. Keep the directive at 1.22+.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"memex/internal/core"
	"memex/internal/events"
	"memex/internal/kvstore"
)

// Server wraps an engine with the HTTP API.
type Server struct {
	engine  *core.Engine
	mux     *http.ServeMux
	cfg     Config
	metrics *metricsSet
	// limiter is nil when rate limiting is disabled.
	limiter *limiter
	// pressure supplies the backpressure signals consulted before write
	// endpoints run; indirect so shed tests can inject a synthetic load.
	pressure func() core.Pressure
	// drain estimates the event queue's drain rate from the pressure
	// samples the write path takes anyway, feeding the adaptive
	// Retry-After hint on shed responses.
	drain drainEstimator
}

// New builds the handler set over an engine with default middleware
// settings: full /metrics observability, no admission limits.
func New(e *core.Engine) *Server {
	return NewWith(e, Config{})
}

// NewWith builds the handler set with explicit observability and
// admission-control settings.
func NewWith(e *core.Engine, cfg Config) *Server {
	s := &Server{
		engine:   e,
		mux:      http.NewServeMux(),
		cfg:      cfg.withDefaults(),
		metrics:  newMetricsSet(),
		pressure: e.Pressure,
	}
	if s.cfg.RatePerSec > 0 {
		s.limiter = newLimiter(s.cfg.RatePerSec, s.cfg.Burst, s.cfg.Now)
	}
	s.handle("POST /api/user", writeRoute, s.handleUser)
	s.handle("POST /api/event", writeRoute, s.handleEvent)
	s.handle("POST /api/bookmark", writeRoute, s.handleBookmark)
	s.handle("POST /api/correct", writeRoute, s.handleCorrect)
	s.handle("POST /api/folders/import", writeRoute, s.handleImport)
	s.handle("GET /api/folders/export", readRoute, s.handleExport)
	s.handle("GET /api/search", readRoute, s.handleSearch)
	s.handle("GET /api/trails", readRoute, s.handleTrails)
	s.handle("GET /api/themes", readRoute, s.handleThemes)
	s.handle("POST /api/themes/rebuild", writeRoute, s.handleRebuild)
	s.handle("GET /api/recommend", readRoute, s.handleRecommend)
	s.handle("GET /api/discover", readRoute, s.handleDiscover)
	s.handle("GET /api/profile", readRoute, s.handleProfile)
	s.handle("GET /api/usage", readRoute, s.handleUsage)
	s.handle("GET /api/status", opsRoute, s.handleStatus)
	s.handle("GET /metrics", opsRoute, s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// --- request/response DTOs (shared with the client package) ---

// UserReq registers a user.
type UserReq struct {
	ID   int64  `json:"id"`
	Name string `json:"name"`
}

// EventReq is one page-view event from the client tap.
type EventReq struct {
	User     int64     `json:"user"`
	URL      string    `json:"url"`
	Referrer string    `json:"referrer,omitempty"`
	Time     time.Time `json:"time"`
	// Privacy is "off", "private" or "community" (default community).
	Privacy string `json:"privacy,omitempty"`
}

// BookmarkReq files a page into a folder.
type BookmarkReq struct {
	User   int64     `json:"user"`
	URL    string    `json:"url"`
	Folder string    `json:"folder"`
	Time   time.Time `json:"time"`
}

// CorrectReq fixes a classifier guess (cut/paste in the folder tab).
type CorrectReq struct {
	User   int64  `json:"user"`
	URL    string `json:"url"`
	Folder string `json:"folder"`
}

// OK is the generic success envelope.
type OK struct {
	OK bool `json:"ok"`
}

// ErrBody is the generic error envelope.
type ErrBody struct {
	Error string `json:"error"`
}

// parsePrivacy maps the wire value to the archiving mode. Empty takes the
// documented default; anything else unrecognised is refused, not widened —
// a typo must not publish to the community a visit meant to stay private.
func parsePrivacy(s string) (events.Privacy, error) {
	switch s {
	case "off":
		return events.Off, nil
	case "private":
		return events.Private, nil
	case "community", "":
		return events.Community, nil
	}
	return 0, badRequestf(`bad privacy %q: want "off", "private" or "community"`, s)
}

// reply is a route's answer: body bytes and their content type. Handlers
// return one and never see the response writer; handle (middleware.go)
// commits it, so a reply has one status, one Content-Type and a body that
// was complete before its first byte left.
type reply struct {
	contentType string
	body        []byte
}

// A handler computes one route's answer from the request alone. A nil
// error is a 200; a badRequest is a 400, and so is a row the store refuses
// as too large (only the client can shorten its URL, title or folder); any
// other error is a 500.
type handler func(r *http.Request) (reply, error)

// badRequest marks an error as the client's to fix: the only way to a 400.
type badRequest string

func (b badRequest) Error() string { return string(b) }

func badRequestf(format string, args ...any) error {
	return badRequest(fmt.Sprintf(format, args...))
}

func jsonReply(v any) (reply, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return reply{}, err
	}
	return reply{"application/json", buf.Bytes()}, nil
}

// Request bodies are capped, far above what a well-formed request needs: a
// JSON body carries one row's fields (kvstore.MaxKV bytes at most), an
// import one Netscape bookmark file. A read past the cap is a 400 naming it.
const (
	maxJSONBody   = 64 << 10
	maxImportBody = 8 << 20
)

// Header-read and idle-connection timeouts for every http.Server this API
// runs under: a client that trickles its request headers, or parks an idle
// keep-alive connection, is cut off instead of holding it forever.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// HTTPServer returns the http.Server that serves h on addr, with the
// timeouts above.
func HTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// answer runs h and picks the status and body to commit.
func answer(h handler, r *http.Request) (int, reply) {
	rep, err := h(r)
	if err == nil {
		return http.StatusOK, rep
	}
	code := http.StatusInternalServerError
	var overCap *http.MaxBytesError
	switch {
	case kvstore.ErrTooLarge(err):
		err = badRequestf("%v: a row's key and value may take %d bytes together", err, kvstore.MaxKV)
	case errors.As(err, &overCap):
		err = badRequestf("request body exceeds the %d-byte cap", overCap.Limit)
	}
	if errors.As(err, new(badRequest)) {
		code = http.StatusBadRequest
	}
	return code, errorReply(err)
}

func errorReply(err error) reply {
	rep, _ := jsonReply(ErrBody{Error: err.Error()}) // one string field: cannot fail to encode
	return rep
}

func decode[T any](r *http.Request) (T, error) {
	var v T
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxJSONBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		if errors.As(err, new(*http.MaxBytesError)) {
			return v, err // answer names the cap
		}
		return v, badRequestf("bad request body: %v", err)
	}
	return v, nil
}

// qint64 is the one integer query-param parser. A missing param yields
// (0, nil); a malformed one is a 400 distinct from "param required" —
// `?user=abc` must not silently become user 0, nor `?k=abc` the default.
func qint64(r *http.Request, name string) (int64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, badRequestf("bad %s", name)
	}
	return v, nil
}

// requireUser parses the mandatory user param ("bad user" for malformed,
// "user required" for absent).
func requireUser(r *http.Request) (int64, error) {
	user, err := qint64(r, "user")
	if err == nil && user == 0 {
		err = badRequestf("user required")
	}
	return user, err
}

// Caps on the count params, far above every caller (k ≤ 15, budget ≤ 400):
// k sizes candidate sets and budget is pages crawled on the request's
// goroutine, so past the cap is a 400 naming it, not a silent clamp.
const (
	maxK      = 1000
	maxBudget = 10000
)

// qint parses a count param; absent or ≤ 0 takes def, over limit is a 400.
func qint(r *http.Request, name string, def, limit int) (int, error) {
	v, err := qint64(r, name)
	switch {
	case err != nil || v <= 0:
		return def, err
	case v > int64(limit):
		return 0, badRequestf("%s %d exceeds the cap of %d", name, v, limit)
	}
	return int(v), nil
}

// requireFolder reads the mandatory folder param.
func requireFolder(r *http.Request) (string, error) {
	folder := r.URL.Query().Get("folder")
	if folder == "" {
		return "", badRequestf("folder required")
	}
	return folder, nil
}

// --- handlers ---

func (s *Server) handleUser(r *http.Request) (reply, error) {
	req, err := decode[UserReq](r)
	if err != nil {
		return reply{}, err
	}
	if req.ID == 0 || req.Name == "" {
		return reply{}, badRequestf("id and name required")
	}
	if err := s.engine.RegisterUser(req.ID, req.Name); err != nil {
		return reply{}, err
	}
	return jsonReply(OK{true})
}

func (s *Server) handleEvent(r *http.Request) (reply, error) {
	req, err := decode[EventReq](r)
	if err != nil {
		return reply{}, err
	}
	if req.User == 0 || req.URL == "" {
		return reply{}, badRequestf("user and url required")
	}
	privacy, err := parsePrivacy(req.Privacy)
	if err != nil {
		return reply{}, err
	}
	if err := s.engine.RecordVisit(req.User, req.URL, req.Referrer, req.Time, privacy); err != nil {
		return reply{}, err
	}
	return jsonReply(OK{true})
}

func (s *Server) handleBookmark(r *http.Request) (reply, error) {
	req, err := decode[BookmarkReq](r)
	if err != nil {
		return reply{}, err
	}
	if req.User == 0 || req.URL == "" || req.Folder == "" {
		return reply{}, badRequestf("user, url and folder required")
	}
	if err := s.engine.AddBookmark(req.User, req.URL, req.Folder, req.Time); err != nil {
		return reply{}, err
	}
	return jsonReply(OK{true})
}

func (s *Server) handleCorrect(r *http.Request) (reply, error) {
	req, err := decode[CorrectReq](r)
	if err != nil {
		return reply{}, err
	}
	if err := s.engine.CorrectPlacement(req.User, req.URL, req.Folder); err != nil {
		return reply{}, badRequest(err.Error())
	}
	return jsonReply(OK{true})
}

func (s *Server) handleImport(r *http.Request) (reply, error) {
	user, err := requireUser(r)
	if err != nil {
		return reply{}, err
	}
	n, err := s.engine.ImportBookmarks(user, http.MaxBytesReader(nil, r.Body, maxImportBody))
	switch {
	case errors.As(err, new(*http.MaxBytesError)):
		return reply{}, err // answer names the cap
	case err != nil:
		return reply{}, badRequest(err.Error())
	}
	return jsonReply(map[string]int{"imported": n})
}

// handleExport renders the whole tree before anything is committed, like
// every route: an engine failure half way is a 500, never a truncated
// bookmark file under a 200.
func (s *Server) handleExport(r *http.Request) (reply, error) {
	user, err := requireUser(r)
	if err != nil {
		return reply{}, err
	}
	var buf bytes.Buffer
	if err := s.engine.ExportBookmarks(user, &buf); err != nil {
		return reply{}, err
	}
	return reply{"text/html; charset=utf-8", buf.Bytes()}, nil
}

func (s *Server) handleSearch(r *http.Request) (reply, error) {
	q := r.URL.Query().Get("q")
	if q == "" {
		return reply{}, badRequestf("q required")
	}
	// user is optional for search (anonymous queries see only community
	// pages) but must still parse when present.
	user, err := qint64(r, "user")
	if err != nil {
		return reply{}, err
	}
	k, err := qint(r, "k", 10, maxK)
	if err != nil {
		return reply{}, err
	}
	return jsonReply(s.engine.Search(user, q, k))
}

func (s *Server) handleTrails(r *http.Request) (reply, error) {
	user, err := requireUser(r)
	if err != nil {
		return reply{}, err
	}
	folder, err := requireFolder(r)
	if err != nil {
		return reply{}, err
	}
	k, err := qint(r, "k", 20, maxK)
	if err != nil {
		return reply{}, err
	}
	return jsonReply(s.engine.Trails(user, folder, k))
}

func (s *Server) handleThemes(*http.Request) (reply, error) {
	return jsonReply(s.engine.Themes())
}

func (s *Server) handleRebuild(*http.Request) (reply, error) {
	return jsonReply(s.engine.RebuildThemes())
}

func (s *Server) handleRecommend(r *http.Request) (reply, error) {
	user, err := requireUser(r)
	if err != nil {
		return reply{}, err
	}
	k, err := qint(r, "k", 10, maxK)
	if err != nil {
		return reply{}, err
	}
	byProfile := r.URL.Query().Get("method") != "url"
	return jsonReply(s.engine.Recommend(user, k, byProfile))
}

func (s *Server) handleDiscover(r *http.Request) (reply, error) {
	user, err := requireUser(r)
	if err != nil {
		return reply{}, err
	}
	folder, err := requireFolder(r)
	if err != nil {
		return reply{}, err
	}
	budget, err := qint(r, "budget", 200, maxBudget)
	if err != nil {
		return reply{}, err
	}
	k, err := qint(r, "k", 10, maxK)
	if err != nil {
		return reply{}, err
	}
	return jsonReply(s.engine.Discover(user, folder, budget, k))
}

func (s *Server) handleProfile(r *http.Request) (reply, error) {
	user, err := requireUser(r)
	if err != nil {
		return reply{}, err
	}
	p := s.engine.Profile(user)
	if p == nil {
		return jsonReply(map[string]any{"user": user, "weights": map[int]float64{}})
	}
	return jsonReply(map[string]any{"user": p.User, "weights": p.Weights})
}

// handleUsage rejects a malformed `since` instead of silently falling
// back to the all-time breakdown — quietly wrong data is worse than a
// 400 the client can fix.
func (s *Server) handleUsage(r *http.Request) (reply, error) {
	user, err := requireUser(r)
	if err != nil {
		return reply{}, err
	}
	var since time.Time
	if v := r.URL.Query().Get("since"); v != "" {
		if since, err = time.Parse(time.RFC3339, v); err != nil {
			return reply{}, badRequestf("bad since: want RFC3339")
		}
	}
	return jsonReply(s.engine.UsageBreakdown(user, since))
}

// handleStatus serves the engine's full counter snapshot (core.Stats) as
// JSON. Beside the page/user/queue counters this includes two nested
// observability blocks: Version (the derived-data version store —
// watermark, layers, pins, GC and cold-tier activity)
// and Cache (the shared decoded-record cache — Hits/Misses measure
// cross-pass reuse, EvictedLRU/EvictedFloor split evictions by cause,
// Bytes/MaxBytes/Entries size the decoded footprint against its bound).
func (s *Server) handleStatus(*http.Request) (reply, error) {
	return jsonReply(s.engine.Status())
}
