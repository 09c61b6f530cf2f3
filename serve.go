package memex

import (
	"net/http"

	"memex/internal/client"
	"memex/internal/server"
)

// ServeConfig holds the HTTP layer's capacity settings: per-client rate
// limiting and the global in-flight cap, both off in the zero value. Every
// handler sheds write endpoints with 503 once the background event queue
// is 90 % full, and serves GET /metrics (see the internal/server package
// doc for the metric families).
type ServeConfig = server.Config

// Handler returns the HTTP API handler for an engine, mountable in any
// http.Server (the paper's servlet container), with the zero ServeConfig:
// writes are shed at 90 % queue depth, and nothing is rate limited or
// capped.
func (m *Memex) Handler() http.Handler {
	return server.New(m.Engine, ServeConfig{})
}

// HandlerWith returns the HTTP API handler with a deployment's capacity
// settings.
func (m *Memex) HandlerWith(cfg ServeConfig) http.Handler {
	return server.New(m.Engine, cfg)
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
