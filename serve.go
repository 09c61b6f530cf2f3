package memex

import (
	"net/http"

	"memex/internal/client"
	"memex/internal/server"
)

// ServeConfig tunes the HTTP layer's observability and admission
// middleware: per-client rate limiting, the global in-flight cap, and
// the backpressure thresholds that shed write endpoints. The zero value
// keeps every limiter off while still serving GET /metrics (see the
// internal/server package doc for the metric families and knobs).
type ServeConfig = server.Config

// Handler returns the HTTP API handler for an engine, mountable in any
// http.Server (the paper's servlet container). Admission control is
// disabled; use HandlerWith to enable it.
func (m *Memex) Handler() http.Handler {
	return server.New(m.Engine)
}

// HandlerWith returns the HTTP API handler with explicit admission
// settings.
func (m *Memex) HandlerWith(cfg ServeConfig) http.Handler {
	return server.NewWith(m.Engine, cfg)
}

// Serve runs the HTTP API on addr until the server fails, with the
// server's header-read and idle timeouts. Deployments that need TLS mount
// Handler on their own server.
func (m *Memex) Serve(addr string) error {
	return server.HTTPServer(addr, m.Handler()).ListenAndServe()
}

// Client is the typed HTTP client (the applet stand-in).
type Client = client.Client

// NewClient returns a client for a Memex server at base, e.g.
// "http://localhost:8600".
func NewClient(base string) *Client {
	return client.New(base)
}
