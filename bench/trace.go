package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Op; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	// Start and End are nanoseconds since the tracer was made.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer is a
// tracer that is off.
type tracer struct {
	enabled atomic.Bool
	epoch   time.Time

	mu    sync.Mutex
	spans []span
	next  uint64
	// urlOp remembers which request submitted a URL, so the source lookup
	// an analyzer makes later can be tied to it.
	urlOp map[string]uint64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), urlOp: map[string]uint64{}}
}

func (t *tracer) on() bool { return t != nil && t.enabled.Load() }

func (t *tracer) enable(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

func (t *tracer) newID() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span; id 0 asks for a fresh one.
func (t *tracer) record(id, parent, op uint64, name, layer string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.next++
		id = t.next
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name, Layer: layer,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
}

func (t *tracer) submitted(url string, op uint64) {
	t.mu.Lock()
	t.urlOp[url] = op
	t.mu.Unlock()
}

func (t *tracer) opOf(url string) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.urlOp[url]
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

const (
	spanHeader = "X-Bench-Span"
	opHeader   = "X-Bench-Op"
	pollHeader = "X-Bench-Poll"
)

// spanTransport carries the current client span to the server in request
// headers, and marks the searches a probe polls with so that the server
// side does not count them among the measured searches. The one client
// goroutine sets span, op and poll before each call.
type spanTransport struct {
	base     http.RoundTripper
	span, op uint64
	poll     bool
}

func (t *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if t.span != 0 || t.poll {
		r = r.Clone(r.Context())
	}
	if t.span != 0 {
		r.Header.Set(spanHeader, strconv.FormatUint(t.span, 10))
		r.Header.Set(opHeader, strconv.FormatUint(t.op, 10))
	}
	if t.poll {
		r.Header.Set(pollHeader, "1")
	}
	return t.base.RoundTrip(r)
}

// serverKinds maps the API's routes to the request kinds they serve.
var serverKinds = map[string]opKind{
	"/api/event":          opVisit,
	"/api/bookmark":       opBookmark,
	"/api/folders/import": opImport,
	"/api/search":         opSearch,
	"/api/trails":         opTrails,
	"/api/recommend":      opRecommend,
	"/api/usage":          opUsage,
}

// timedHandler is the benchmark's own wrapper around the API handler: it
// times every request by kind and, in a traced round, records the
// server.<op> span under the client span named in the request.
type timedHandler struct {
	next   http.Handler
	tracer *tracer

	mu  sync.Mutex
	lat [nOpKinds][]float64 // µs
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	kind, ok := serverKinds[r.URL.Path]
	if !ok || r.Header.Get(pollHeader) != "" {
		return
	}
	h.mu.Lock()
	h.lat[kind] = append(h.lat[kind], us(end.Sub(start)))
	h.mu.Unlock()
	if parent, err := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64); err == nil && h.tracer.on() {
		op, _ := strconv.ParseUint(r.Header.Get(opHeader), 10, 64)
		h.tracer.record(0, parent, op, "server."+opNames[kind], "server", start, end)
	}
}

// take returns and clears the latencies gathered so far.
func (h *timedHandler) take() [nOpKinds][]float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.lat
	h.lat = [nOpKinds][]float64{}
	return out
}
