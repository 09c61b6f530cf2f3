package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"memex"
	"memex/internal/core"
	"memex/internal/events"
	"memex/internal/folders"
)

// target is what a schedule is played against: the typed HTTP client, or
// the engine itself when the twin repeats the requests by direct calls.
type target interface {
	Visit(user int64, url, ref string, at time.Time) error
	Bookmark(user int64, url, folder string, at time.Time) error
	Import(user int64, file []byte) (int, error)
	Search(user int64, query string, k int) ([]core.PageInfo, error)
	Trails(user int64, folder string, k int) (core.TrailContext, error)
	Recommend(user int64, k int) ([]core.PageInfo, error)
	Usage(user int64) ([]core.UsageSlice, error)
}

type httpTarget struct{ c *memex.Client }

func (t httpTarget) Visit(user int64, url, ref string, at time.Time) error {
	return t.c.Visit(user, url, ref, at, "community")
}
func (t httpTarget) Bookmark(user int64, url, folder string, at time.Time) error {
	return t.c.Bookmark(user, url, folder, at)
}
func (t httpTarget) Import(user int64, file []byte) (int, error) {
	return t.c.ImportBookmarks(user, bytes.NewReader(file))
}
func (t httpTarget) Search(user int64, query string, k int) ([]core.PageInfo, error) {
	return t.c.Search(user, query, k)
}
func (t httpTarget) Trails(user int64, folder string, k int) (core.TrailContext, error) {
	return t.c.Trails(user, folder, k)
}
func (t httpTarget) Recommend(user int64, k int) ([]core.PageInfo, error) {
	return t.c.Recommend(user, k, "profile")
}
func (t httpTarget) Usage(user int64) ([]core.UsageSlice, error) {
	return t.c.Usage(user, time.Time{})
}

// engineTarget calls the engine directly. Import does what
// Engine.ImportBookmarks does, one AddBookmark per entry, so that each
// AddBookmark is timed on its own.
type engineTarget struct {
	e           *core.Engine
	addBookmark []float64 // µs
}

func (t *engineTarget) Visit(user int64, url, ref string, at time.Time) error {
	return t.e.RecordVisit(user, url, ref, at, events.Community)
}
func (t *engineTarget) Bookmark(user int64, url, folder string, at time.Time) error {
	start := time.Now()
	err := t.e.AddBookmark(user, url, folder, at)
	t.addBookmark = append(t.addBookmark, us(time.Since(start)))
	return err
}
func (t *engineTarget) Import(user int64, file []byte) (int, error) {
	tree, err := folders.ImportNetscape(bytes.NewReader(file))
	if err != nil {
		return 0, err
	}
	n := 0
	tree.Walk(func(f *folders.Folder) {
		for _, entry := range f.Entries {
			if err == nil {
				if err = t.Bookmark(user, entry.URL, f.Path(), entry.Added); err == nil {
					n++
				}
			}
		}
	})
	return n, err
}
func (t *engineTarget) Search(user int64, query string, k int) ([]core.PageInfo, error) {
	return t.e.Search(user, query, k), nil
}
func (t *engineTarget) Trails(user int64, folder string, k int) (core.TrailContext, error) {
	return t.e.Trails(user, folder, k), nil
}
func (t *engineTarget) Recommend(user int64, k int) ([]core.PageInfo, error) {
	return t.e.Recommend(user, k, true), nil
}
func (t *engineTarget) Usage(user int64) ([]core.UsageSlice, error) {
	return t.e.UsageBreakdown(user, time.Time{}), nil
}

// roundResult is what one round measured.
type roundResult struct {
	// lat holds per-kind latencies in ms; for opProbe it is the time from
	// the probe visit being sent to the first search that returns it.
	lat [nOpKinds][]float64
	// visitsPerS is the visits of the round's write segment over the time
	// from the first send until DrainBackground returns, less the time the
	// client spent waiting for the segment's read requests.
	visitsPerS float64
	// server holds what the handler wrapper timed during the round (µs);
	// traced runs only.
	server [nOpKinds][]float64
}

// player plays requests against a target and keeps the oracle's books:
// what was sent, what must therefore be true of the engine afterwards.
type player struct {
	eng   *core.Engine
	tgt   target
	layer string // "client" or "core": the layer its spans belong to

	tracer    *tracer        // nil unless the run is traced
	transport *spanTransport // nil when the target is the engine

	attempted, failed int
	failures          []string

	visits    int64           // RecordVisit calls the engine acknowledged
	submitted map[string]bool // distinct URLs submitted for archiving
	probes    []op
	seq       uint64
	depthMax  int // deepest event queue seen after a write (twin only)
}

func newPlayer(eng *core.Engine, tgt target, layer string) *player {
	return &player{eng: eng, tgt: tgt, layer: layer, submitted: map[string]bool{}}
}

func (p *player) fail(format string, args ...any) {
	p.failed++
	if len(p.failures) < 10 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// check is one verification step: it counts as an attempted operation
// and, when the condition does not hold, as a failed one.
func (p *player) check(ok bool, format string, args ...any) {
	p.attempted++
	if !ok {
		p.fail(format, args...)
	}
}

// timed runs one call, as a span when tracing is on.
func (p *player) timed(name string, fn func() error) (time.Duration, error) {
	if !p.tracer.on() {
		start := time.Now()
		err := fn()
		return time.Since(start), err
	}
	id := p.tracer.newID()
	if p.transport != nil {
		p.transport.span, p.transport.op = id, p.seq
	}
	start := time.Now()
	err := fn()
	end := time.Now()
	if p.transport != nil {
		p.transport.span = 0
	}
	p.tracer.record(id, 0, p.seq, p.layer+"."+name, p.layer, start, end)
	return end.Sub(start), err
}

func (p *player) sent(url string) {
	p.submitted[url] = true
	if p.tracer.on() {
		p.tracer.submitted(url, p.seq)
	}
	if p.layer == "core" {
		if d := p.eng.Pressure().QueueDepth; d > p.depthMax {
			p.depthMax = d
		}
	}
}

// play runs the requests in order, one at a time, each sent when the
// previous one has been answered.
func (p *player) play(ops []op) roundResult {
	var rr roundResult
	start := time.Now()
	segment, segVisits := true, 0
	var reads time.Duration // spent in the write segment's read requests
	for i := range ops {
		o := &ops[i]
		p.seq++
		p.attempted++
		var d time.Duration
		var err error
		switch o.kind {
		case opVisit:
			d, err = p.timed("visit", func() error { return p.tgt.Visit(o.user, o.url, o.ref, o.at) })
			if err == nil {
				p.visits++
				p.sent(o.url)
				if segment {
					segVisits++
				}
			}
		case opBookmark:
			d, err = p.timed("bookmark", func() error { return p.tgt.Bookmark(o.user, o.url, o.folder, o.at) })
			p.sent(o.url)
		case opImport:
			var n int
			d, err = p.timed("import", func() (e error) { n, e = p.tgt.Import(o.user, o.body); return })
			if err == nil && n != len(o.urls) {
				err = fmt.Errorf("imported %d of %d entries", n, len(o.urls))
			}
			for _, u := range o.urls {
				p.sent(u)
			}
			d /= time.Duration(len(o.urls)) // per entry
		case opProbe:
			var ack time.Duration
			sent := time.Now()
			ack, err = p.timed("visit", func() error { return p.tgt.Visit(o.user, o.url, "", o.at) })
			if err == nil {
				rr.lat[opVisit] = append(rr.lat[opVisit], ms(ack))
				p.visits++
				p.sent(o.url)
				p.probes = append(p.probes, *o)
				if segment {
					segVisits++
				}
				err = p.awaitSearchable(o)
			}
			d = time.Since(sent)
		case opSearch:
			d, err = p.timed("search", func() error { _, e := p.tgt.Search(o.user, o.query, resultK); return e })
		case opTrails:
			d, err = p.timed("trails", func() error { _, e := p.tgt.Trails(o.user, o.folder, resultK); return e })
		case opRecommend:
			d, err = p.timed("recommend", func() error { _, e := p.tgt.Recommend(o.user, resultK); return e })
		case opUsage:
			d, err = p.timed("usage", func() error { _, e := p.tgt.Usage(o.user); return e })
		case opDrain:
			t0 := time.Now()
			p.eng.DrainBackground()
			d = time.Since(t0)
			if segment {
				segment = false
				rr.visitsPerS = float64(segVisits) / (time.Since(start) - reads).Seconds()
			}
		case opMine:
			t0 := time.Now()
			p.eng.RetrainClassifiers()
			p.eng.RebuildThemes()
			d = time.Since(t0)
		}
		if err != nil {
			p.fail("%s user %d %s%s: %v", opNames[o.kind], o.user, o.url, o.query, err)
			continue
		}
		rr.lat[o.kind] = append(rr.lat[o.kind], ms(d))
		if segment && (o.kind == opSearch || o.kind == opTrails || o.kind == opRecommend || o.kind == opUsage) {
			reads += d
		}
	}
	return rr
}

// awaitSearchable polls, closed loop, until a search for the probe's
// marker returns the probe page.
func (p *player) awaitSearchable(o *op) error {
	if p.transport != nil {
		p.transport.poll = true
		defer func() { p.transport.poll = false }()
	}
	deadline := time.Now().Add(probeTimeout)
	for {
		hits, err := p.tgt.Search(o.user, o.query, resultK)
		if err != nil {
			return err
		}
		for _, h := range hits {
			if h.URL == o.url {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not searchable after %v", probeTimeout)
		}
	}
}

// preload archives the first part of the trace by direct engine calls, in
// bursts the event queue can hold.
func (p *player) preload(w *world, s *schedule) error {
	const burst = queueSize / 2
	queued := 0
	step := func() {
		if queued++; queued == burst {
			p.eng.DrainBackground()
			queued = 0
		}
	}
	for _, v := range w.visits[:s.preloadVisits] {
		if err := p.eng.RecordVisit(v.User, w.url(v.Page), w.referrer(v), v.Time, events.Community); err != nil {
			return err
		}
		p.visits++
		p.submitted[w.url(v.Page)] = true
		step()
	}
	for _, b := range w.bookmarks[:s.preloadBookmarks] {
		if err := p.eng.AddBookmark(b.User, w.url(b.Page), b.Folder, b.Time); err != nil {
			return err
		}
		p.submitted[w.url(b.Page)] = true
		step()
	}
	p.eng.DrainBackground()
	return nil
}

// checkCounters holds the engine's own counters against what was sent:
// every visit logged, nothing shed, and exactly one fetch for each
// distinct URL submitted.
func (p *player) checkCounters() {
	st := p.eng.Status()
	p.check(st.Visits == p.visits, "engine logged %d visits, %d were sent", st.Visits, p.visits)
	p.check(st.EventsDropped == 0, "%d events were dropped", st.EventsDropped)
	p.check(st.PagesFetched == int64(len(p.submitted)), "engine fetched %d pages, %d distinct URLs were submitted",
		st.PagesFetched, len(p.submitted))
}

// checkProbes searches every probe's marker: the answer must be exactly
// the probe page.
func (p *player) checkProbes(tgt target, when string) {
	for _, o := range p.probes {
		hits, err := tgt.Search(o.user, o.query, resultK)
		p.check(err == nil && len(hits) == 1 && hits[0].URL == o.url,
			"%s: search for marker %s returned %v (%v), want exactly %s", when, o.query, urlsOf(hits), err, o.url)
	}
}

func urlsOf(hits []core.PageInfo) []string {
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = h.URL
	}
	return out
}

// answers plays the first-query set and returns each answer as its
// ranked lists: one for a search or a recommendation, two (pages, then
// popular pages) for a trail, none for the mining pass that stands between
// the searches and the rest (classifiers and themes live in memory only,
// so a reopened engine has none until the demons' first pass).
func (p *player) answers(tgt target, first []op) [][][]core.PageInfo {
	out := make([][][]core.PageInfo, len(first))
	for i, o := range first {
		var err error
		p.attempted++
		switch o.kind {
		case opSearch:
			var hits []core.PageInfo
			hits, err = tgt.Search(o.user, o.query, resultK)
			out[i] = [][]core.PageInfo{hits}
		case opTrails:
			var tc core.TrailContext
			tc, err = tgt.Trails(o.user, o.folder, resultK)
			out[i] = [][]core.PageInfo{tc.Pages, tc.Popular}
		case opRecommend:
			var hits []core.PageInfo
			hits, err = tgt.Recommend(o.user, resultK)
			out[i] = [][]core.PageInfo{hits}
		case opMine:
			p.eng.RetrainClassifiers()
			p.eng.RebuildThemes()
		}
		if err != nil {
			p.fail("first-query %s: %v", opNames[o.kind], err)
		}
	}
	return out
}

// sameAnswer compares a ranked list taken before Close with the one the
// restarted engine gives. The restart rebuilds the index and the corpus
// statistics from the folded records in another order, so scores may
// differ in their last bits: a page must keep its score to within 1e-9,
// and a page that is new to the list must tie with the old list's last
// score (two pages that tie at rank k may swap across the cut). Lists
// that carry no scores (recommendations, a trail's popular pages) must
// hold the same pages.
func sameAnswer(before, after []core.PageInfo) bool {
	if len(before) != len(after) {
		return false
	}
	near := func(a, b float64) bool {
		d, m := a-b, max(1, max(a, -a))
		return d <= 1e-9*m && -d <= 1e-9*m
	}
	score := map[string]float64{}
	scored := false
	for _, h := range before {
		score[h.URL] = h.Score
		scored = scored || h.Score != 0
	}
	for _, h := range after {
		want, ok := score[h.URL]
		if !ok {
			if !scored {
				return false
			}
			want = before[len(before)-1].Score
		}
		if !near(h.Score, want) {
			return false
		}
	}
	return true
}

// instance is one life of the engine behind its HTTP API.
type instance struct {
	m       *memex.Memex
	client  *memex.Client
	handler *timedHandler // nil unless the run is traced
	tp      *spanTransport
	srv     *http.Server
	conns   *http.Transport
	served  chan error
	closed  bool
}

// openEngine opens the engine at the facade's defaults (group-commit WAL,
// 2 analyzer workers, 32 MiB record cache, 4096-event queue) with the clock
// pinned, and registers every user of the world, as each user's client does
// when it starts. That is needed after a restart too: the engine rebuilds
// its user set from the bookmarks table, so a user without bookmarks — a
// crawl robot — is otherwise forgotten across a restart and drops out of
// everyone's recommendations.
func openEngine(dir string, w *world) (*memex.Memex, error) {
	m, err := memex.Open(memex.Config{Dir: dir, Source: w.source, Now: func() time.Time { return w.now }})
	if err != nil {
		return nil, err
	}
	for _, u := range w.users {
		if err := m.RegisterUser(u.ID, u.Name); err != nil {
			m.Close()
			return nil, err
		}
	}
	return m, nil
}

// openInstance opens the engine and serves it on a loopback port for one
// keep-alive client.
func openInstance(dir string, w *world, tr *tracer) (*instance, error) {
	m, err := openEngine(dir, w)
	if err != nil {
		return nil, err
	}
	in := &instance{m: m, served: make(chan error, 1)}
	handler := m.Handler()
	in.conns = &http.Transport{MaxIdleConnsPerHost: 1}
	var rt http.RoundTripper = in.conns
	if tr != nil {
		in.handler = &timedHandler{next: handler, tracer: tr}
		handler = in.handler
		in.tp = &spanTransport{base: in.conns}
		rt = in.tp
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, err
	}
	in.srv = &http.Server{Handler: handler}
	go func() { in.served <- in.srv.Serve(ln) }()
	in.client = memex.NewClient("http://" + ln.Addr().String()).
		WithHTTPClient(&http.Client{Transport: rt, Timeout: time.Minute})
	return in, nil
}

// close stops the server, waits for it, and closes the engine.
func (in *instance) close() error {
	in.closed = true
	in.conns.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := in.srv.Shutdown(ctx)
	<-in.served
	if cerr := in.m.Close(); err == nil {
		err = cerr
	}
	return err
}

// runConfig says what to run.
type runConfig struct {
	workload workload
	seed     int64
	rounds   int
	trace    bool
	world    worldSize
	spans    string // where a traced run writes its spans
	// tmp is where the run makes its scratch directory ("" = os.TempDir()).
	tmp string
	// settle is how long a traced run's twin engine waits between its
	// warm-up and its rounds.
	settle time.Duration
	// lose is a URL the page source fails to resolve (tests).
	lose string
}

// report is everything a run measured.
type report struct {
	attempted, failed int
	failures          []string
	metrics           map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func metricNamesSorted(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func heapAllocAfterGC() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// setupRepeats is how often an untraced run sets up — generation, open,
// preload, mining pass, warm-up round — before it measures: it reports the
// median, so that one slow spell does not move set-up time.
const setupRepeats = 3

// run plays one workload — set-up, the measured rounds, Close, restart,
// verification — and returns what it measured.
func run(cfg runConfig) (*report, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	tmp, err := os.MkdirTemp(cfg.tmp, "memex-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// Whatever instance is open when run returns early is closed on the way.
	var in, in2 *instance
	defer func() {
		for _, open := range []*instance{in, in2} {
			if open != nil && !open.closed {
				open.close()
			}
		}
	}()

	// Set-up, several times over, each from nothing; all but the last
	// world and engine are thrown away.
	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	var (
		w       *world
		sched   *schedule
		p       *player
		dir     string
		ownHeap float64
		setups  []float64
	)
	for i := 0; i < repeats; i++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
			in, p = nil, nil
		}
		start := time.Now()
		w = newWorld(cfg.world)
		w.source.lose, w.source.tracer = cfg.lose, tr
		if sched, err = buildSchedule(w, cfg.workload, cfg.seed, cfg.rounds); err != nil {
			return nil, err
		}
		// What the benchmark itself holds — the world and every request — is
		// on the heap by now; the engine's share is what comes on top.
		ownHeap = heapAllocAfterGC()
		dir = fmt.Sprintf("%s/store%d", tmp, i)
		if in, err = openInstance(dir, w, tr); err != nil {
			return nil, err
		}
		p = newPlayer(in.m.Engine, httpTarget{in.client}, "client")
		p.tracer, p.transport = tr, in.tp
		if err := p.preload(w, sched); err != nil {
			return nil, err
		}
		p.play([]op{{kind: opMine}})
		p.play(sched.warmup)
		p.attempted = 0 // the warm-up is not measured; its failures still count
		runtime.GC()
		setups = append(setups, time.Since(start).Seconds())
	}

	if cfg.trace {
		in.handler.take()
	}
	usage0 := readProc()
	var rounds []roundResult
	var heap []float64
	roundsStart := time.Now()
	for i, ops := range sched.rounds {
		// A traced run alternates: even rounds as an untraced run would
		// play them, odd rounds with spans, so the two can be compared.
		tr.enable(cfg.trace && i%2 == 1)
		rr := p.play(ops)
		tr.enable(false)
		if cfg.trace {
			rr.server = in.handler.take()
		}
		rounds = append(rounds, rr)
		heap = append(heap, (heapAllocAfterGC()-ownHeap)/(1<<20))
	}
	usage1 := readProc()
	roundsEnd := time.Now()

	// Check the books against everything sent, then take the answers the
	// restarted engine must reproduce.
	p.play([]op{{kind: opDrain}})
	p.checkCounters()
	p.checkProbes(p.tgt, "before close")
	before := p.answers(p.tgt, sched.first)
	if err := in.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	closed := time.Now()

	// Restart: open the closed directory and answer the first-query set on
	// the empty cache and the folded cold tier.
	if in2, err = openInstance(dir, w, nil); err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	p2 := newPlayer(in2.m.Engine, httpTarget{in2.client}, "client")
	p2.probes = p.probes
	after := p2.answers(p2.tgt, sched.first)
	restartS := time.Since(closed).Seconds()
	for i := range before {
		same := len(after[i]) == len(before[i])
		for j := 0; same && j < len(before[i]); j++ {
			same = sameAnswer(before[i][j], after[i][j])
		}
		p2.check(same, "first-query %d (%s) changed across restart:\n  before %v\n  after  %v",
			i, opNames[sched.first[i].kind], before[i], after[i])
	}
	p2.checkProbes(p2.tgt, "after restart")
	st := in2.m.Status()
	p2.check(st.PagesFetched == 0, "restarted engine fetched %d pages", st.PagesFetched)
	diskPerPage := float64(st.DiskBytes) / float64(max(1, st.PagesIndexed))
	if err := in2.close(); err != nil {
		return nil, fmt.Errorf("close after restart: %w", err)
	}

	fmt.Fprintf(os.Stderr, "phases: set-ups %.2f s, %d rounds %.1f s, checks and close %.1f s, restart and checks %.1f s\n",
		setups, len(rounds), roundsEnd.Sub(roundsStart).Seconds(), closed.Sub(roundsEnd).Seconds(), time.Since(closed).Seconds())
	fmt.Fprintf(os.Stderr, "engine heap after each round, MB: %.1f\n", heap)
	rep := &report{
		attempted: p.attempted + p2.attempted,
		failed:    p.failed + p2.failed,
		failures:  append(p.failures, p2.failures...),
		metrics:   map[string]metric{},
	}
	// What a user of the system sees. BENCHMARK.json gates some of it
	// (end_to_end) and lists the rest among the per-layer metrics: an
	// untraced run reports the first part, a traced run the second.
	user := userMetrics(rounds)
	user["setup_s"] = metric{median(setups), "s"}
	user["restart_s"] = metric{restartS, "s"}
	user["heap_live_mb"] = metric{heap[len(heap)-1], "MB"}
	user["disk_bytes_per_page"] = metric{diskPerPage, "B/page"}
	for _, name := range metricNamesSorted(user) {
		if slices.Contains(gated, name) != cfg.trace {
			rep.metrics[name] = user[name]
		} else {
			fmt.Fprintf(os.Stderr, "not in this report: %s %.6g %s\n", name, user[name].Value, user[name].Unit)
		}
	}
	if !cfg.trace {
		return rep, nil
	}
	// The twin: a second engine with the same settings, alone in the
	// process now, fed the same preload, warm-up and first rounds by
	// direct calls.
	lm := &layerMetrics{out: rep.metrics, tracer: tr, w: w, sched: sched, tmp: tmp, settle: cfg.settle}
	lm.clientServer(rounds)
	lm.proc(usage0, usage1)
	if err := lm.twinSetUp(); err != nil {
		return nil, fmt.Errorf("twin: %w", err)
	}
	for _, ops := range sched.rounds[:min(twinRounds, len(sched.rounds))] {
		lm.twinRound(ops, cfg.workload.round.importSize)
	}
	if err := lm.twinFinish(); err != nil {
		return nil, fmt.Errorf("twin: %w", err)
	}
	rep.attempted += lm.attempted
	rep.failed += lm.failed
	rep.failures = append(rep.failures, lm.failures...)
	if err := lm.ladder(); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	lm.costTable(os.Stderr, rounds)
	// The spans go to the file asked for, or to the run's scratch directory,
	// which is removed when the run ends.
	spans := cfg.spans
	if spans == "" {
		spans = tmp + "/spans.jsonl"
	}
	if err := tr.write(spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%d spans written to %s\n", len(tr.spans), spans)
	return rep, nil
}

// gated names the user-facing metrics that BENCHMARK.json lists under
// end_to_end, each with a bound; the others are listed under per_layer.
var gated = []string{"setup_s", "disk_bytes_per_page"}

// userMetrics computes what the rounds say a user saw. Every timing is
// taken inside each round — the median request, or the round's one write
// segment or mining pass — and the median over the rounds is reported, so
// that a slow spell shorter than half the run does not move it.
func userMetrics(rounds []roundResult) map[string]metric {
	per := func(kind opKind) [][]float64 {
		var r [][]float64
		for _, rr := range rounds {
			r = append(r, rr.lat[kind])
		}
		return r
	}
	var vps []float64
	for _, rr := range rounds {
		vps = append(vps, rr.visitsPerS)
	}
	return map[string]metric{
		"visits_per_s":              {median(vps), "1/s"},
		"visit_ack_p50_ms":          {roundMedian(per(opVisit), 50), "ms"},
		"time_to_searchable_p50_ms": {roundMedian(per(opProbe), 50), "ms"},
		"search_p50_ms":             {roundMedian(per(opSearch), 50), "ms"},
		"trails_p50_ms":             {roundMedian(per(opTrails), 50), "ms"},
		"recommend_p50_ms":          {roundMedian(per(opRecommend), 50), "ms"},
		"mining_pass_ms":            {roundMedian(per(opMine), 50), "ms"},
	}
}
