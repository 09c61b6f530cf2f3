package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"text/tabwriter"
	"time"

	"memex/internal/classify"
	"memex/internal/core"
	"memex/internal/events"
	"memex/internal/folders"
	"memex/internal/graph"
	"memex/internal/kvstore"
	"memex/internal/profile"
	"memex/internal/rdbms"
	"memex/internal/recommend"
	"memex/internal/text"
	"memex/internal/textindex"
	"memex/internal/themes"
	"memex/internal/trails"
	"memex/internal/version"
)

// Sizes of the ladder replays: enough samples for a steady median, small
// enough that the whole ladder takes a few seconds.
const (
	ladderPages   = 8000 // pages tokenized and indexed, so index search runs at the archive's size
	ladderRows    = 4000 // visit rows inserted and scanned
	ladderPublish = 2000 // version-store batches published, read hot, folded, read cold
	ladderThemes  = 2000 // pages filed into the pseudo-users' folders
	ladderUsers   = 20   // pseudo-users the theme, profile and recommend replays file pages for
	ladderClasses = 4    // folders of the replayed classifier
	ladderKV      = 2000 // single puts and gets
	coldSearches  = 50   // first searches timed after the twin reopens

	twinSettle = 2500 * time.Millisecond // a little over the engine's version-GC interval
)

// procUsage is a reading of the process's own resource counters.
type procUsage struct {
	cpu      time.Duration
	alloc    uint64
	gcCycles uint32
	gcPause  time.Duration
	rssKB    int64
}

func readProc() procUsage {
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return procUsage{
		cpu:      tv(ru.Utime) + tv(ru.Stime),
		alloc:    m.TotalAlloc,
		gcCycles: m.NumGC,
		gcPause:  time.Duration(m.PauseTotalNs),
		rssKB:    ru.Maxrss,
	}
}

// layerMetrics gathers the per-layer metrics of a traced run.
type layerMetrics struct {
	out    map[string]metric
	tracer *tracer
	w      *world
	sched  *schedule
	tmp    string
	settle time.Duration

	attempted, failed int
	failures          []string

	// The twin engine, between twinSetUp and twinFinish.
	twin       *player
	twinBefore core.Stats
	twinRounds []roundResult
	writeTime  time.Duration   // the twin's write-path time over its rounds
	seen       map[string]bool // URLs the twin has been sent
	// Of the twin's measured visits: how many, how many to a new URL, how
	// many carrying a referrer; of its import entries: how many, how many
	// to a new URL.
	visitOps, freshOps, refOps  float64
	importEntries, freshEntries float64

	// What the cost table needs beside the metrics themselves: the median
	// cost of each kind of request (µs) at the client, the server and in
	// the twin, each the median over the rounds the twin played too, so
	// that all three speak of the same archive.
	clientP50, serverP50, coreP50 [nOpKinds]float64
	visits, users, bookmarks      float64  // rows in the twin's archive after its rounds
	urls                          []string // distinct URLs the twin archived, sorted
	// The shares the counts above come to.
	freshShare, refShare, freshImports float64
}

func (lm *layerMetrics) set(name string, v float64, unit string) { lm.out[name] = metric{v, unit} }
func (lm *layerMetrics) get(name string) float64                 { return lm.out[name].Value }

// pooled gathers one kind's samples from every round.
func pooled(rounds []roundResult, kind opKind) []float64 {
	var all []float64
	for _, rr := range rounds {
		all = append(all, rr.lat[kind]...)
	}
	return all
}

// clientServer reports what the client and the handler wrapper saw over
// the measured rounds.
func (lm *layerMetrics) clientServer(rounds []roundResult) {
	lm.set("client.visit_p99_ms", percentile(pooled(rounds, opVisit), 99), "ms")
	lm.set("client.search_p99_ms", percentile(pooled(rounds, opSearch), 99), "ms")
	lm.set("client.usage_p50_ms", percentile(pooled(rounds, opUsage), 50), "ms")
	lm.set("client.import_ms_per_entry", mean(pooled(rounds, opImport)), "ms")
	shared := rounds[:min(twinRounds, len(rounds))]
	for k := opKind(0); k < nOpKinds; k++ {
		var client, server [][]float64
		for _, rr := range shared {
			client, server = append(client, rr.lat[k]), append(server, rr.server[k])
		}
		lm.clientP50[k], lm.serverP50[k] = 1000*roundMedian(client, 50), roundMedian(server, 50)
	}
	lm.set("server.visit_us", lm.serverP50[opVisit], "us")
	lm.set("server.search_us", lm.serverP50[opSearch], "us")
	lm.set("server.trails_ms", lm.serverP50[opTrails]/1000, "ms")
	lm.set("server.recommend_ms", lm.serverP50[opRecommend]/1000, "ms")
	lm.set("client.transport_visit_us", lm.clientP50[opVisit]-lm.serverP50[opVisit], "us")
}

// proc reports the process's resource use over the measured rounds.
func (lm *layerMetrics) proc(a, b procUsage) {
	lm.set("proc.cpu_s", (b.cpu - a.cpu).Seconds(), "s")
	lm.set("proc.alloc_mb", float64(b.alloc-a.alloc)/(1<<20), "MB")
	lm.set("proc.gc_cycles", float64(b.gcCycles-a.gcCycles), "count")
	lm.set("proc.gc_pause_ms", ms(b.gcPause-a.gcPause), "ms")
	lm.set("proc.rss_peak_mb", float64(b.rssKB)/1024, "MB")
}

// twinSetUp opens a second engine with the same settings and brings it to
// where the first one is when its measured rounds start — preload, mining
// pass, warm-up — by direct calls.
func (lm *layerMetrics) twinSetUp() error {
	m, err := openEngine(filepath.Join(lm.tmp, "twin"), lm.w)
	if err != nil {
		return err
	}
	tgt := &engineTarget{e: m.Engine}
	p := newPlayer(m.Engine, tgt, "core")
	p.tracer = lm.tracer
	if err := p.preload(lm.w, lm.sched); err != nil {
		m.Close()
		return err
	}
	p.play([]op{{kind: opMine}})
	p.play(lm.sched.warmup)
	p.attempted = 0
	tgt.addBookmark = nil
	// The first engine had its warm-up and its garbage collection between
	// preload and rounds; the twin would go straight on while its GC demon
	// still folds the preload to disk, and its readers would wait for the
	// fold's write locks. Give the demon one interval.
	time.Sleep(lm.settle)
	lm.twin, lm.twinBefore = p, m.Status()
	lm.seen = map[string]bool{}
	for u := range p.submitted {
		lm.seen[u] = true
	}
	return nil
}

// twinRound repeats a round the client played through HTTP by direct
// calls, with a span around each.
func (lm *layerMetrics) twinRound(ops []op, importSize int) {
	lm.tracer.enable(true)
	rr := lm.twin.play(ops)
	lm.tracer.enable(false)
	lm.twinRounds = append(lm.twinRounds, rr)
	for _, k := range []opKind{opVisit, opBookmark, opProbe, opDrain} {
		lm.writeTime += time.Duration(sum(rr.lat[k]) * float64(time.Millisecond))
	}
	lm.writeTime += time.Duration(sum(rr.lat[opImport]) * float64(importSize) * float64(time.Millisecond))
	for _, o := range ops {
		switch o.kind {
		case opVisit:
			lm.visitOps++
			if !lm.seen[o.url] {
				lm.seen[o.url] = true
				lm.freshOps++
			}
			if o.ref != "" {
				lm.refOps++
			}
		case opImport:
			for _, u := range o.urls {
				lm.importEntries++
				if !lm.seen[u] {
					lm.seen[u] = true
					lm.freshEntries++
				}
			}
		}
	}
}

// twinFinish reports what the twin's calls cost and its counters' deltas,
// checks it as the first engine was checked, and times its Close, its
// reopening and its first cold answers.
func (lm *layerMetrics) twinFinish() error {
	p, rounds := lm.twin, lm.twinRounds
	m := p.eng
	tgt := p.tgt.(*engineTarget)
	before, after := lm.twinBefore, m.Status()
	lm.freshShare, lm.refShare = lm.freshOps/max(1, lm.visitOps), lm.refOps/max(1, lm.visitOps)
	lm.freshImports = lm.freshEntries / max(1, lm.importEntries)
	lm.visits, lm.users, lm.bookmarks = float64(after.Visits), float64(after.Users), float64(after.Bookmarks)

	for k := opKind(0); k < nOpKinds; k++ {
		var per [][]float64
		for _, rr := range rounds {
			per = append(per, rr.lat[k])
		}
		lm.coreP50[k] = 1000 * roundMedian(per, 50)
	}
	lm.set("core.recordvisit_us", lm.coreP50[opVisit], "us")
	lm.set("core.addbookmark_us", percentile(tgt.addBookmark, 50), "us")
	lm.set("core.search_us", lm.coreP50[opSearch], "us")
	lm.set("core.trails_ms", lm.coreP50[opTrails]/1000, "ms")
	lm.set("core.recommend_ms", lm.coreP50[opRecommend]/1000, "ms")
	lm.set("core.usage_ms", lm.coreP50[opUsage]/1000, "ms")
	fetched := after.PagesFetched - before.PagesFetched
	lm.set("core.drain_us_per_fresh_page", us(lm.writeTime)/float64(max(1, fetched)), "us")
	lm.set("core.pages_fetched", float64(fetched), "count")
	lm.set("core.events_dropped", float64(after.EventsDropped-before.EventsDropped), "count")
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	misses := float64(after.Cache.Misses - before.Cache.Misses)
	lm.set("core.cache_hit_ratio", hits/max(1, hits+misses), "ratio")
	lm.set("core.cache_evictions", float64(after.Cache.EvictedLRU+after.Cache.EvictedFloor-
		before.Cache.EvictedLRU-before.Cache.EvictedFloor), "count")
	lm.set("events.queue_depth_max", float64(p.depthMax), "count")
	lm.set("server.overhead_visit_us", lm.serverP50[opVisit]-lm.coreP50[opVisit], "us")

	p.play([]op{{kind: opDrain}, {kind: opMine}})
	p.checkCounters()
	p.checkProbes(tgt, "twin")
	for u := range p.submitted {
		lm.urls = append(lm.urls, u)
	}
	sort.Strings(lm.urls)
	lm.attempted, lm.failed, lm.failures = p.attempted, p.failed, p.failures

	start := time.Now()
	err := m.Close()
	lm.set("core.close_ms", ms(time.Since(start)), "ms")
	if err != nil {
		return err
	}
	start = time.Now()
	reopened, err := openEngine(filepath.Join(lm.tmp, "twin"), lm.w)
	if err != nil {
		return err
	}
	lm.set("core.open_ms", ms(time.Since(start)), "ms")
	reopened.RetrainClassifiers()
	reopened.RebuildThemes()
	var coldSearch []float64
	coldTrails := 0.0
	for _, o := range lm.sched.first {
		start = time.Now()
		switch {
		case o.kind == opSearch && len(coldSearch) < coldSearches:
			reopened.Search(o.user, o.query, resultK)
			coldSearch = append(coldSearch, ms(time.Since(start)))
		case o.kind == opTrails && coldTrails == 0:
			reopened.Trails(o.user, o.folder, resultK)
			coldTrails = ms(time.Since(start))
		}
	}
	lm.set("core.cold_search_ms", percentile(coldSearch, 50), "ms")
	lm.set("core.cold_trails_ms", coldTrails, "ms")
	return reopened.Close()
}

// The engine's own pages and visits schemas (core.createTables), for the
// rdbms replay.
var (
	pagesSchema = rdbms.Schema{
		Name: "pages",
		Columns: []rdbms.Column{
			{Name: "id", Type: rdbms.TInt},
			{Name: "url", Type: rdbms.TString},
			{Name: "title", Type: rdbms.TString},
			{Name: "fetched", Type: rdbms.TBool},
		},
		Key:     "id",
		Indexes: []string{"url"},
	}
	visitsSchema = rdbms.Schema{
		Name: "visits",
		Columns: []rdbms.Column{
			{Name: "id", Type: rdbms.TInt},
			{Name: "user", Type: rdbms.TInt},
			{Name: "page", Type: rdbms.TInt},
			{Name: "ref", Type: rdbms.TInt},
			{Name: "time", Type: rdbms.TTime},
			{Name: "privacy", Type: rdbms.TInt},
		},
		Key:     "id",
		Indexes: []string{"user", "time"},
	}
)

// each times n calls of fn one by one, in µs.
func each(n int, fn func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		start := time.Now()
		fn(i)
		out[i] = us(time.Since(start))
	}
	return out
}

// total times fn once, in µs.
func total(fn func()) float64 {
	start := time.Now()
	fn()
	return us(time.Since(start))
}

// ladder replays each lower layer on its own, on the inputs of this run:
// the pages the twin archived, the visit rows it logged, the queries it
// answered. Every replay is a span of its layer.
func (lm *layerMetrics) ladder() error {
	w := lm.w
	steps := []struct {
		layer string
		fn    func(in *ladderInput) error
	}{
		{"events", lm.ladderEvents},
		{"rdbms", lm.ladderRDBMS},
		{"kvstore", lm.ladderKV},
		{"text", lm.ladderText}, // also textindex: it indexes what text produced
		{"version", lm.ladderVersion},
		{"mining", lm.ladderMining}, // classify, trails, graph, themes, profile, recommend
		{"folders", lm.ladderFolders},
	}
	in := &ladderInput{}
	for _, u := range lm.urls {
		if len(in.pages) == ladderPages {
			break
		}
		if c, ok := w.source.base.Lookup(u); ok { // corpus pages only: probes have no topic
			in.pages = append(in.pages, c)
			in.ids = append(in.ids, w.corpus.ByURL[u])
		}
	}
	pageOf := map[string]int64{}
	for i, c := range in.pages {
		pageOf[c.URL] = in.ids[i]
	}
	row := func(user int64, url, ref string, at time.Time) {
		if len(in.rows) < ladderRows && pageOf[url] != 0 {
			in.rows = append(in.rows, trails.Visit{User: user, Page: pageOf[url], Referrer: pageOf[ref], Time: at})
		}
	}
	for _, v := range w.visits[:lm.sched.preloadVisits] {
		row(v.User, w.url(v.Page), w.referrer(v), v.Time)
	}
	for _, ops := range append([][]op{lm.sched.warmup}, lm.sched.rounds...) {
		for _, o := range ops {
			switch o.kind {
			case opVisit:
				row(o.user, o.url, o.ref, o.at)
			case opSearch:
				in.queries = append(in.queries, o.query)
			case opImport:
				in.imports = append(in.imports, o)
			}
		}
	}
	sort.SliceStable(in.rows, func(i, j int) bool { return in.rows[i].Time.Before(in.rows[j].Time) })
	for _, s := range steps {
		start := time.Now()
		if err := s.fn(in); err != nil {
			return fmt.Errorf("%s: %w", s.layer, err)
		}
		lm.tracer.record(0, 0, 0, "ladder."+s.layer, s.layer, start, time.Now())
	}
	return nil
}

// ladderInput is what the replays work on.
type ladderInput struct {
	pages   []core.Content
	ids     []int64 // corpus ids of pages
	rows    []trails.Visit
	queries []string
	imports []op
	// tf and vec are filled by the text replay for the ones after it.
	dict *text.Dict
	tf   []map[string]int
	vec  []text.Vector
}

func (lm *layerMetrics) ladderEvents(*ladderInput) error {
	q := events.NewQueue(queueSize)
	ev := events.Event{Kind: events.VisitEvent, User: 1, URL: "http://example.org/", Privacy: events.Community}
	const depth = queueSize / 2
	lm.set("events.push_ns", 1000*total(func() {
		for i := 0; i < depth; i++ {
			q.Push(ev)
		}
	})/depth, "ns")
	// Pop copies the whole buffer down, so its cost grows with the depth.
	lm.set("events.pop_us_depth_2048", percentile(each(500, func(int) {
		q.Pop()
		q.Push(ev)
	}), 50), "us")
	for q.Len() > 0 {
		q.Pop()
	}
	lm.set("events.pop_us_depth_0", percentile(each(2000, func(int) {
		q.Push(ev)
		q.Pop()
	}), 50), "us")
	q.Close()
	return nil
}

func (lm *layerMetrics) ladderRDBMS(in *ladderInput) error {
	db, err := rdbms.Open(filepath.Join(lm.tmp, "ladder-rdbms"), kvstore.Options{Sync: kvstore.SyncGroup})
	if err != nil {
		return err
	}
	defer db.Close()
	pages, err := db.EnsureTable(pagesSchema)
	if err != nil {
		return err
	}
	visits, err := db.EnsureTable(visitsSchema)
	if err != nil {
		return err
	}
	n := min(len(in.pages), ladderRows)
	for i := 0; i < n && err == nil; i++ {
		err = pages.Insert(rdbms.Row{
			"id": rdbms.Int(in.ids[i]), "url": rdbms.String(in.pages[i].URL),
			"title": rdbms.String(""), "fetched": rdbms.Bool(false),
		})
	}
	if err != nil {
		return err
	}
	var nextID, insert []float64
	for _, r := range in.rows {
		start := time.Now()
		id, err := visits.NextID()
		mid := time.Now()
		if err == nil {
			err = visits.Insert(rdbms.Row{
				"id": rdbms.Int(id), "user": rdbms.Int(r.User), "page": rdbms.Int(r.Page),
				"ref": rdbms.Int(r.Referrer), "time": rdbms.Time(r.Time), "privacy": rdbms.Int(int64(events.Community)),
			})
		}
		if err != nil {
			return err
		}
		nextID = append(nextID, us(mid.Sub(start)))
		insert = append(insert, us(time.Since(mid)))
	}
	lm.set("rdbms.nextid_us", percentile(nextID, 50), "us")
	lm.set("rdbms.insert_us_per_row", mean(insert), "us")
	lm.set("rdbms.update_us", percentile(each(n, func(i int) {
		_, err = pages.Update(rdbms.Int(in.ids[i]), func(r rdbms.Row) rdbms.Row {
			r["title"] = rdbms.String(in.pages[i].Title)
			r["fetched"] = rdbms.Bool(true)
			return r
		})
	}), 50), "us")
	if err != nil {
		return err
	}
	lm.set("rdbms.url_lookup_us", percentile(each(n, func(i int) {
		_, _, err = pages.Select().Where(rdbms.Eq("url", rdbms.String(in.pages[i].URL))).First()
	}), 50), "us")
	if err != nil {
		return err
	}
	rows := 0
	count := func(rdbms.Row) bool { rows++; return true }
	t := total(func() {
		for u := int64(1); u <= simUsers && err == nil; u++ {
			err = visits.Select().Where(rdbms.Eq("user", rdbms.Int(u))).Each(count)
		}
	})
	lm.set("rdbms.user_scan_us_per_row", t/float64(max(1, rows)), "us")
	rows = 0
	t = total(func() {
		if err == nil {
			err = visits.Select().OrderBy("time", false).Each(count)
		}
	})
	lm.set("rdbms.time_scan_us_per_row", t/float64(max(1, rows)), "us")
	return err
}

func (lm *layerMetrics) ladderKV(in *ladderInput) error {
	dir := filepath.Join(lm.tmp, "ladder-kv")
	s, err := kvstore.Open(dir, kvstore.Options{Sync: kvstore.SyncGroup})
	if err != nil {
		return err
	}
	defer s.Close()
	row := bytes.Repeat([]byte("r"), 64)  // a table row
	rec := bytes.Repeat([]byte("t"), 600) // a page's term-count record
	key := func(p string, i int) []byte { return []byte(fmt.Sprintf("%s/%08d", p, i)) }
	userBytes := 0
	lm.set("kvstore.put_us", percentile(each(ladderKV, func(i int) {
		k := key("r", i)
		userBytes += len(k) + len(row)
		if e := s.Put(k, row); e != nil {
			err = e
		}
	}), 50), "us")
	const batch, batches = 256, 8
	t := total(func() {
		for b := 0; b < batches && err == nil; b++ {
			pairs := make([]kvstore.KV, batch)
			for i := range pairs {
				pairs[i] = kvstore.KV{Key: key("t", b*batch+i), Value: rec}
				userBytes += len(pairs[i].Key) + len(rec)
			}
			err = s.PutBatch(pairs)
		}
	})
	lm.set("kvstore.putbatch_us_per_kv", t/(batch*batches), "us")
	lm.set("kvstore.get_us", percentile(each(ladderKV, func(i int) {
		if _, _, e := s.Get(key("t", i*7919%(batch*batches))); e != nil {
			err = e
		}
	}), 50), "us")
	n := 0
	t = total(func() {
		if e := s.ScanPrefix([]byte("t/"), func(_, _ []byte) bool { n++; return true }); e != nil {
			err = e
		}
	})
	lm.set("kvstore.scan_us_per_kv", t/float64(max(1, n)), "us")
	if err == nil {
		err = s.Checkpoint()
	}
	lm.set("kvstore.disk_bytes_per_user_byte", float64(s.DiskBytes())/float64(userBytes), "ratio")
	return err
}

func (lm *layerMetrics) ladderText(in *ladderInput) error {
	in.dict = text.NewDict()
	in.tf = make([]map[string]int, len(in.pages))
	in.vec = make([]text.Vector, len(in.pages))
	n := float64(max(1, len(in.pages)))
	lm.set("text.termcounts_us_per_page", total(func() {
		for i, c := range in.pages {
			in.tf[i] = text.TermCounts(c.Title + " " + c.Text)
		}
	})/n, "us")
	lm.set("text.vector_us_per_page", total(func() {
		for i := range in.pages {
			in.vec[i] = text.VectorFromCounts(in.dict, in.tf[i])
		}
	})/n, "us")
	ix := textindex.New(in.dict)
	lm.set("textindex.addcounts_us_per_page", total(func() {
		for i := range in.pages {
			ix.AddCounts(in.ids[i], in.tf[i])
		}
	})/n, "us")
	queries := in.queries[:min(len(in.queries), 1000)]
	lm.set("textindex.search_us", percentile(each(len(queries), func(i int) {
		ix.Search(queries[i], resultK*4+16, textindex.BM25) // the depth core.Search asks for
	}), 50), "us")
	return nil
}

// encodeCounts stands in for the engine's term-count record: sorted terms,
// each with its length and count as uvarints.
func encodeCounts(tf map[string]int) []byte {
	terms := make([]string, 0, len(tf))
	for t := range tf {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	var b []byte
	for _, t := range terms {
		b = binary.AppendUvarint(b, uint64(len(t)))
		b = append(b, t...)
		b = binary.AppendUvarint(b, uint64(tf[t]))
	}
	return b
}

func encodeIDs(ids []int64) []byte {
	var b []byte
	for _, id := range ids {
		b = binary.AppendUvarint(b, uint64(id))
	}
	return b
}

func (lm *layerMetrics) ladderVersion(in *ladderInput) error {
	dir := filepath.Join(lm.tmp, "ladder-version")
	kv, err := kvstore.Open(dir, kvstore.Options{Sync: kvstore.SyncGroup})
	if err != nil {
		return err
	}
	vs, err := version.Open(kv, "vc/", version.Options{})
	if err != nil {
		kv.Close()
		return err
	}
	n := min(len(in.pages), ladderPublish)
	key := func(i int) string { return fmt.Sprintf("tf/%d", in.ids[i]) }
	// One batch per page, as the fetch path publishes: the term record,
	// the out-link record and one in-link delta for each target.
	lm.set("version.publish_us_per_batch", percentile(each(n, func(i int) {
		links := lm.w.corpus.Page(in.ids[i]).Links
		b := vs.BeginSized(2 + len(links))
		b.Put(key(i), encodeCounts(in.tf[i]))
		b.Put(fmt.Sprintf("lnk/%d", in.ids[i]), encodeIDs(links))
		for _, l := range links {
			b.Put(fmt.Sprintf("rinD/%d/%d", l, in.ids[i]), encodeIDs([]int64{in.ids[i]}))
		}
		if e := b.Publish(); e != nil {
			err = e
		}
	}), 50), "us")
	if err != nil {
		vs.Close()
		kv.Close()
		return err
	}
	get := func(sn *version.Snapshot) []float64 {
		return each(n, func(i int) { sn.Get(key(i * 7919 % n)) })
	}
	sn := vs.Acquire()
	lm.set("version.get_hot_ns", 1000*mean(get(sn)), "ns")
	sn.Release()
	var folded int
	t := total(func() { folded, err = vs.Fold() })
	lm.set("version.fold_ms_per_1k", t/1000/(float64(max(1, folded))/1000), "ms")
	sn = vs.Acquire()
	lm.set("version.get_cold_us", percentile(get(sn), 50), "us")
	sn.Release()
	if e := vs.Close(); err == nil {
		err = e
	}
	if e := kv.Close(); err == nil {
		err = e
	}
	if err != nil {
		return err
	}
	if kv, err = kvstore.Open(dir, kvstore.Options{Sync: kvstore.SyncGroup}); err != nil {
		return err
	}
	defer kv.Close()
	lm.set("version.open_ms", total(func() { vs, err = version.Open(kv, "vc/", version.Options{}) })/1000, "ms")
	if err != nil {
		return err
	}
	return vs.Close()
}

// ladderMining replays the mining layers over pseudo-users: page i of the
// input belongs to user i mod ladderUsers, filed under its leaf topic.
func (lm *layerMetrics) ladderMining(in *ladderInput) error {
	w := lm.w
	topicOf := func(i int) int { return w.corpus.Page(in.ids[i]).Topic }

	// classify: a classifier over the first few topics seen, trained and
	// asked as the engine trains and asks a user's folder classifier.
	classes := map[int]bool{}
	trainer := classify.NewTrainer(in.dict)
	perClass := map[int]int{}
	onTopic := map[int64]bool{}
	for i := range in.pages {
		t := topicOf(i)
		if !classes[t] && len(classes) < ladderClasses {
			classes[t] = true
		}
		if classes[t] {
			onTopic[in.ids[i]] = true
			if perClass[t] < 100 {
				perClass[t]++
				trainer.AddCounts(w.corpus.TopicPath(t), in.tf[i])
			}
		}
	}
	var model *classify.Bayes
	var err error
	lm.set("classify.train_ms", total(func() { model, err = trainer.Train(classify.Options{MaxFeatures: 4000}) })/1000, "ms")
	if err != nil {
		return err
	}
	n := min(len(in.pages), 2000)
	lm.set("classify.classify_us", percentile(each(n, func(i int) { model.Classify(in.tf[i]) }), 50), "us")

	// trails and graph: replay the visit rows filtered to those topics,
	// then rank the trail graph's neighbourhood over the corpus links.
	var tg *trails.TrailGraph
	lm.set("trails.replay_ms", total(func() {
		tg = trails.Replay(in.rows, trails.Filter{Topic: func(p int64) bool { return onTopic[p] }}, 0, w.now, 0)
	})/1000, "ms")
	g := graph.New()
	for i := range in.pages {
		for _, l := range w.corpus.Page(in.ids[i]).Links {
			g.AddEdge(in.ids[i], l)
		}
	}
	lm.set("graph.hits_ms", total(func() { trails.Popular(tg, g, resultK) })/1000, "ms")

	// themes, profile, recommend.
	corp := text.NewCorpus()
	m := min(len(in.pages), ladderThemes)
	for i := 0; i < m; i++ {
		corp.AddDoc(in.vec[i])
	}
	folderDocs := map[[2]int][]themes.DocVec{}
	userDocs := map[int64][]themes.DocVec{}
	visited := map[int64]map[int64]bool{}
	for i := 0; i < m; i++ {
		u := i % ladderUsers
		d := themes.DocVec{ID: in.ids[i], Vec: corp.TFIDF(in.vec[i])}
		folderDocs[[2]int{u, topicOf(i)}] = append(folderDocs[[2]int{u, topicOf(i)}], d)
		userDocs[int64(u+1)] = append(userDocs[int64(u+1)], d)
		if visited[int64(u+1)] == nil {
			visited[int64(u+1)] = map[int64]bool{}
		}
		visited[int64(u+1)][in.ids[i]] = true
	}
	var ufs []themes.UserFolder
	for k, docs := range folderDocs {
		ufs = append(ufs, themes.UserFolder{User: int64(k[0] + 1), Path: w.corpus.TopicPath(k[1]), Docs: docs})
	}
	sort.Slice(ufs, func(i, j int) bool {
		if ufs[i].User != ufs[j].User {
			return ufs[i].User < ufs[j].User
		}
		return ufs[i].Path < ufs[j].Path
	})
	var tax *themes.Taxonomy
	lm.set("themes.rebuild_ms", total(func() { tax = themes.Discover(ufs, in.dict, themes.Options{Seed: 1}) })/1000, "ms")
	profiles := map[int64]profile.Profile{}
	lm.set("profile.build_us", percentile(each(ladderUsers, func(i int) {
		u := int64(i + 1)
		profiles[u] = profile.Build(u, userDocs[u], tax)
	}), 50), "us")
	eng := recommend.NewEngine(profiles, visited)
	lm.set("recommend.rank_ms", percentile(each(ladderUsers, func(i int) {
		eng.Recommend(int64(i+1), recommend.ByProfile, 10, resultK)
	}), 50)/1000, "ms")
	return nil
}

func (lm *layerMetrics) ladderFolders(in *ladderInput) error {
	entries := 0
	var err error
	t := total(func() {
		for _, o := range in.imports {
			if _, e := folders.ImportNetscape(bytes.NewReader(o.body)); e != nil {
				err = e
			}
			entries += len(o.urls)
		}
	})
	lm.set("folders.import_us_per_entry", t/float64(max(1, entries)), "us")
	return err
}

// costTable prints, for each kind of request, what it cost at the client,
// at the server and in the engine, what the lower layers' replays add up
// to, and the part of the engine's cost they do not explain.
func (lm *layerMetrics) costTable(out io.Writer, rounds []roundResult) {
	g := lm.get
	links := 0.0
	for _, p := range lm.w.corpus.Pages {
		links += float64(len(p.Links))
	}
	links /= float64(len(lm.w.corpus.Pages))
	rowWrite := g("rdbms.nextid_us") + g("rdbms.insert_us_per_row") + g("events.push_ns")/1000
	newPage := g("rdbms.url_lookup_us") + g("rdbms.nextid_us") + g("rdbms.insert_us_per_row")
	perUser := lm.visits / max(1, lm.users)
	lower := [nOpKinds]float64{
		// A visit writes its row and queues its event; a visit to a new
		// URL also makes the page row, and a new referrer edge publishes.
		opVisit:  rowWrite + lm.freshShare*newPage + lm.freshShare*lm.refShare*g("version.publish_us_per_batch"),
		opImport: g("folders.import_us_per_entry") + rowWrite + lm.freshImports*newPage,
		opSearch: g("textindex.search_us"),
		// Trails scans the visits in time order, classifies each visit's
		// page, replays the trail graph and ranks its neighbourhood.
		opTrails: lm.visits*(g("rdbms.time_scan_us_per_row")+g("classify.classify_us")) +
			1000*(g("trails.replay_ms")*lm.visits/ladderRows+g("graph.hits_ms")),
		// Recommend reads every user's visited pages' vectors, builds every
		// profile (the replay's profiles hold ladderThemes/ladderUsers pages
		// each) and ranks.
		opRecommend: lm.visits*g("version.get_hot_ns")/1000 + lm.visits/(ladderThemes/ladderUsers)*g("profile.build_us") + 1000*g("recommend.rank_ms"),
		opUsage:     perUser * (g("rdbms.user_scan_us_per_row") + g("classify.classify_us")),
		// The mining pass trains a classifier for every user with folders
		// enough and clusters every bookmark; the themes replay clustered
		// ladderThemes pages.
		opMine: float64(lm.sched.askers)*1000*g("classify.train_ms") + 1000*g("themes.rebuild_ms")*lm.bookmarks/ladderThemes,
	}
	fresh := g("text.termcounts_us_per_page") + g("text.vector_us_per_page") + g("version.publish_us_per_batch") +
		g("textindex.addcounts_us_per_page") + g("rdbms.update_us") + links*g("rdbms.url_lookup_us")

	// Tracing overhead: the first traced round against the mean of the
	// untraced rounds on either side of it, so that an archive that grows
	// from round to round does not pass for overhead.
	overhead := func(kind opKind) string {
		if len(rounds) < 3 {
			return "-"
		}
		p50 := func(i int) float64 { return 1000 * percentile(rounds[i].lat[kind], 50) }
		return fmt.Sprintf("%+.1f", p50(1)-(p50(0)+p50(2))/2)
	}
	// An import entry in the engine is one AddBookmark plus its share of
	// the parse; the median AddBookmark, because the twin is fed faster
	// than HTTP can feed it and a call now and then waits for the busier
	// analyzers.
	lm.coreP50[opImport] = g("core.addbookmark_us") + g("folders.import_us_per_entry")
	tw := tabwriter.NewWriter(out, 0, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "cost per request, µs (p50)\tclient\tserver\tcore\tΣ lower layers\tunexplained\ttracing overhead\t")
	for _, k := range []opKind{opVisit, opImport, opSearch, opTrails, opRecommend, opUsage, opMine} {
		client, server := "-", "-"
		over := "-"
		if k != opMine {
			client = fmt.Sprintf("%.1f", lm.clientP50[k])
			server = fmt.Sprintf("%.1f", lm.serverP50[k])
			over = overhead(k)
		}
		name := opNames[k]
		if k == opImport {
			name = "import (per entry)"
			server = fmt.Sprintf("%.1f", lm.serverP50[k]/float64(importSizeOf(lm.sched)))
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.1f\t%.1f\t%.1f\t%s\t\n", name, client, server, lm.coreP50[k], lower[k], lm.coreP50[k]-lower[k], over)
	}
	drain := g("core.drain_us_per_fresh_page")
	fmt.Fprintf(tw, "fresh page (write path)\t-\t-\t%.1f\t%.1f\t%.1f\t-\t\n", drain, fresh, drain-fresh)
	tw.Flush()
}

// importSizeOf is the number of entries in the schedule's import files.
func importSizeOf(s *schedule) int {
	for _, o := range s.rounds[0] {
		if o.kind == opImport {
			return len(o.urls)
		}
	}
	return 1
}
