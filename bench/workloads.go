package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"

	"memex"
	"memex/internal/core"
	"memex/internal/sim"
	"memex/internal/webcorpus"
)

// The benchmark's frozen sizes. Changing any of them is a benchmark
// change: numbers measured before and after do not compare.
//
// They were sized on the 2-vCPU reference box, where at 8 000 archived
// visits a search takes ≈0.3 ms, Trails ≈0.2 s and Recommend ≈0.5 s, so
// that every workload gives ≥2 000 visit and search samples and ≥20
// trails, recommend and probe samples in 30–40 s of wall time. (At the
// 27 k visits of a 40-day trace Trails is 0.7 s and Recommend 1.9 s here,
// and 20 samples of each alone would take 50 s.)
const (
	pagesPerLeaf = 800 // 48 leaves → 38 400 corpus pages
	simUsers     = 50
	simDays      = 16   // ≈10.4 k visits, of which the first traceVisits are used
	traceVisits  = 8000 // the trace is cut here so the archive size does not move with the seed

	measuredRounds = 5
	tracedRounds   = 4 // a traced run alternates untraced and traced rounds
	twinRounds     = 2 // rounds the twin engine repeats by direct calls
	warmupDivisor  = 4 // the warm-up round is a quarter of a measured round

	queueSize = 4096 // the facade's event-queue bound (core.Config default)
	resultK   = 10   // k of Search, Trails and Recommend
	robots    = 4    // crawl-ingest: users 1..robots crawl
	importers = 6    // crawl-ingest: users robots+1..robots+importers import

	// The first-query set, answered before Close and after every restart:
	// the searches, one mining pass, then Trails and Recommend.
	firstSearches   = 200
	firstTrails     = 2
	firstRecommends = 2

	probeTimeout = 5 * time.Second
)

// roundSize is the composition of one measured round.
type roundSize struct {
	visits, bookmarks, imports, importSize, probes int
	searches, trails, recommends, usage            int
}

func (r roundSize) scaled(div int) roundSize {
	s := func(n int) int {
		if n == 0 {
			return 0
		}
		return max(1, n/div)
	}
	return roundSize{
		visits: s(r.visits), bookmarks: s(r.bookmarks), imports: s(r.imports), importSize: r.importSize, probes: s(r.probes),
		searches: s(r.searches), trails: s(r.trails), recommends: s(r.recommends), usage: s(r.usage),
	}
}

// writeEvents is the number of background events one round's write
// segment can have queued at once; it must stay below queueSize, because
// the queue sheds its oldest event on overflow and a run that loses
// events is neither correct nor repeatable.
func (r roundSize) writeEvents() int {
	return r.visits + r.bookmarks + r.imports*r.importSize + r.probes
}

type workload struct {
	name string
	// preload is the share of the trace archived before timing starts.
	preload float64
	round   roundSize
	build   func(g *gen, size roundSize) []op
}

var workloads = []workload{
	{
		// Every event brings a never-seen page: fetch, tokenize, index,
		// publish and row update do the work, the archive (hence every
		// O(archive) query) stays small, and probes wait behind import bursts.
		name: "crawl-ingest",
		round: roundSize{visits: 1200, imports: 4, importSize: 300, probes: 4,
			searches: 400, trails: 4, recommends: 4, usage: 8},
		build: (*gen).crawlRound,
	},
	{
		// The whole trace is archived and nothing is fetched: index search,
		// table scans, pinned-view reads through the record cache and mining
		// do the work.
		name:    "recall-query",
		preload: 1,
		round: roundSize{visits: 1000, imports: 1, importSize: 40, probes: 8,
			searches: 800, trails: 4, recommends: 4, usage: 20},
		build: (*gen).recallRound,
	},
	{
		// Queries interleaved with trace visits and imports: the only
		// workload where readers run while the analyzers publish.
		name:    "surf-mixed",
		preload: 0.6,
		round: roundSize{visits: 500, bookmarks: 50, imports: 1, importSize: 300, probes: 8,
			searches: 400, trails: 4, recommends: 4, usage: 20},
		build: (*gen).mixedRound,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type opKind uint8

const (
	opVisit opKind = iota
	opBookmark
	opImport
	opProbe
	opSearch
	opTrails
	opRecommend
	opUsage
	opDrain // DrainBackground on the engine; the first one in a round ends its write segment
	opMine  // RetrainClassifiers + RebuildThemes on the engine, what the periodic demons do
	nOpKinds
)

var opNames = [nOpKinds]string{"visit", "bookmark", "import", "probe", "search", "trails", "recommend", "usage", "drain", "mine"}

// op is one pre-generated request.
type op struct {
	kind   opKind
	user   int64
	url    string // visit, bookmark, probe
	ref    string // visit
	at     time.Time
	folder string   // bookmark, trails
	query  string   // search; the marker term of a probe
	body   []byte   // import: the Netscape file
	urls   []string // import: the file's entries
}

// world is the Web and the community every run plays on.
type world struct {
	corpus    *webcorpus.Corpus
	users     []sim.User
	visits    []sim.Visit
	bookmarks []sim.Bookmark
	// now is the engine clock: a day past the trace, so answers do not
	// depend on the wall clock.
	now    time.Time
	source *probeSource
}

type worldSize struct {
	pagesPerLeaf, users, days, visits int
}

var fullWorld = worldSize{pagesPerLeaf, simUsers, simDays, traceVisits}

// worldSeed seeds the world of every run. The seed of a run draws its
// requests — which pages are revisited, searched for, imported and probed,
// where the robots walk, where queries fall among the visits — but every
// seed plays on the same Web and the same community, so that runs with
// different seeds are runs of the same workload: worlds of different seeds
// differ by a tenth in bookmarks and folders, and the mining pass, Trails
// and the restart moved with them.
const worldSeed = 1

func newWorld(sz worldSize) *world {
	mw := memex.GenerateWorld(memex.WorldConfig{
		Seed: worldSeed,
		Web:  webcorpus.Config{PagesPerLeaf: sz.pagesPerLeaf},
		Surf: sim.Config{Users: sz.users, Days: sz.days},
	})
	w := &world{corpus: mw.Corpus, users: mw.Trace.Users, visits: mw.Trace.Visits, bookmarks: mw.Trace.Bookmarks}
	if len(w.visits) > sz.visits {
		w.visits = w.visits[:sz.visits]
	}
	last := w.visits[len(w.visits)-1].Time
	n := sort.Search(len(w.bookmarks), func(i int) bool { return w.bookmarks[i].Time.After(last) })
	w.bookmarks = w.bookmarks[:n]
	w.now = last.Add(24 * time.Hour)
	w.source = &probeSource{base: mw.Source(), probes: map[string]core.Content{}}
	return w
}

func (w *world) url(page int64) string { return w.corpus.Page(page).URL }

// referrer is the URL the visit came from, "" when its session started there.
func (w *world) referrer(v sim.Visit) string {
	if v.Referrer == 0 {
		return ""
	}
	return w.url(v.Referrer)
}

// probeSource is the benchmark's PageSource: the synthetic Web plus the
// probe pages, recording one span for each lookup of a traced round.
type probeSource struct {
	base   core.PageSource
	probes map[string]core.Content // filled before the engine opens, read-only after
	// lose, when set, is a URL the source fails to resolve (tests).
	lose   string
	tracer *tracer
}

func (s *probeSource) Lookup(url string) (core.Content, bool) {
	start := time.Now()
	c, ok := s.probes[url]
	if !ok {
		c, ok = s.base.Lookup(url)
	}
	if url == s.lose {
		c, ok = core.Content{}, false
	}
	if s.tracer.on() {
		s.tracer.record(0, 0, s.tracer.opOf(url), "source.lookup", "source", start, time.Now())
	}
	return c, ok
}

// gen draws a workload's requests. Everything it emits is a function of
// the world and its rng; it never reads a clock.
type gen struct {
	w   *world
	rng *rand.Rand
	// ranked lists archived pages, most popular first; zipfPage indexes it.
	ranked []int64
	// pool is the workload's fresh pool — the corpus pages the trace never
	// touches — in seeded order; claimed marks pages already handed out.
	pool    []int64
	inTrace map[int64]bool
	claimed map[int64]bool
	next    int
	// preloaded trace visits, and cursors past them (surf-mixed).
	preloaded, nextVisit, nextBookmark int
	// seq numbers generated requests; clock turns it into a timestamp.
	seq    int
	base   time.Time
	probeN int
	seed   int64
	// askers are the users Trails, Recommend and Usage are asked for; each
	// has two or more folders, hence a trained classifier.
	askers  []asker
	robotAt [robots]int64
}

type asker struct {
	user    int64
	folders []string
}

// schedule is a run's complete request list.
type schedule struct {
	preloadVisits, preloadBookmarks int
	askers                          int // users with folders enough for a classifier
	warmup                          []op
	rounds                          [][]op
	first                           []op
}

// buildSchedule generates every request of a run with the given number of
// measured rounds. It registers the probe pages with the world's source.
func buildSchedule(w *world, wl workload, seed int64, rounds int) (*schedule, error) {
	g := &gen{
		w:       w,
		rng:     rand.New(rand.NewSource(seed*7919 + 17)),
		claimed: map[int64]bool{},
		inTrace: map[int64]bool{},
		seed:    seed,
		base:    w.visits[len(w.visits)-1].Time,
	}
	s := &schedule{preloadVisits: int(float64(len(w.visits)) * wl.preload)}
	if s.preloadVisits > 0 {
		cut := w.visits[s.preloadVisits-1].Time
		s.preloadBookmarks = sort.Search(len(w.bookmarks), func(i int) bool { return w.bookmarks[i].Time.After(cut) })
	}
	g.preloaded, g.nextVisit, g.nextBookmark = s.preloadVisits, s.preloadVisits, s.preloadBookmarks

	// Popularity ranking of the preloaded archive.
	count := map[int64]int{}
	for _, v := range w.visits[:s.preloadVisits] {
		count[v.Page]++
	}
	for p := range count {
		g.ranked = append(g.ranked, p)
	}
	sort.Slice(g.ranked, func(i, j int) bool {
		a, b := g.ranked[i], g.ranked[j]
		if count[a] != count[b] {
			return count[a] > count[b]
		}
		return a < b
	})
	for _, v := range w.visits {
		g.inTrace[v.Page] = true
	}
	for _, b := range w.bookmarks {
		g.inTrace[b.Page] = true
	}
	for _, i := range g.rng.Perm(len(w.corpus.Pages)) {
		if id := w.corpus.Pages[i].ID; !g.inTrace[id] {
			g.pool = append(g.pool, id)
		}
	}

	// Askers: on an empty archive the importers, whose imports give them
	// folders; otherwise the trace users whose preloaded bookmarks span
	// two or more folders.
	if s.preloadVisits == 0 {
		for i := 0; i < importers; i++ {
			g.askers = append(g.askers, asker{user: int64(robots + 1 + i)})
		}
	} else {
		folders := map[int64][]string{}
		for _, b := range w.bookmarks[:s.preloadBookmarks] {
			if !slices.Contains(folders[b.User], b.Folder) {
				folders[b.User] = append(folders[b.User], b.Folder)
			}
		}
		for _, u := range w.users {
			if f := folders[u.ID]; len(f) >= 2 {
				sort.Strings(f)
				g.askers = append(g.askers, asker{user: u.ID, folders: f})
			}
		}
	}

	if len(g.askers) == 0 {
		return nil, fmt.Errorf("seed %d: no user has bookmarks in two folders to ask Trails about", seed)
	}
	if n := wl.round.writeEvents(); n >= queueSize {
		return nil, fmt.Errorf("%s: a round queues %d events, the queue holds %d", wl.name, n, queueSize)
	}
	if wl.preload > 0 && wl.preload < 1 { // the workload plays on the rest of the trace
		need := wl.round.scaled(warmupDivisor).visits + rounds*wl.round.visits
		if left := len(w.visits) - s.preloadVisits; left < need {
			return nil, fmt.Errorf("seed %d: %s needs %d trace visits after the preload, the trace has %d", seed, wl.name, need, left)
		}
	}

	s.warmup = wl.build(g, wl.round.scaled(warmupDivisor))
	for r := 0; r < rounds; r++ {
		s.rounds = append(s.rounds, wl.build(g, wl.round))
	}
	s.first = g.queries(nil, roundSize{searches: firstSearches})
	s.first = append(s.first, op{kind: opMine})
	s.first = g.queries(s.first, roundSize{trails: firstTrails, recommends: firstRecommends})
	s.askers = len(g.askers)
	return s, nil
}

func (g *gen) clock() time.Time {
	g.seq++
	return g.base.Add(time.Duration(g.seq) * time.Second)
}

// fresh hands out the next unclaimed page of the fresh pool.
func (g *gen) fresh() int64 {
	for g.claimed[g.pool[g.next]] {
		g.next++
	}
	p := g.pool[g.next]
	g.claimed[p] = true
	return p
}

// zipfPage draws an archived page, popular ones far more often.
func (g *gen) zipfPage() int64 {
	u := g.rng.Float64()
	return g.ranked[int(u*u*u*float64(len(g.ranked)))]
}

// crawlVisit is a robot's next first-visit: an out-link of the page it is
// on when one is still fresh (the referrer rides along), else a jump to
// the next page of the pool.
func (g *gen) crawlVisit(robot int) op {
	o := op{kind: opVisit, user: int64(robot + 1), at: g.clock()}
	next := int64(0)
	if cur := g.robotAt[robot]; cur != 0 {
		for _, l := range g.w.corpus.Page(cur).Links {
			if !g.claimed[l] && !g.inTrace[l] {
				g.claimed[l] = true
				next, o.ref = l, g.w.url(cur)
				break
			}
		}
	}
	if next == 0 {
		next = g.fresh()
	}
	o.url = g.w.url(next)
	g.robotAt[robot] = next
	g.ranked = append(g.ranked, next)
	return o
}

// importFile is a Netscape bookmark file of n pages for the user, filed by
// leaf topic under the page's top-level topic. Fresh pages come from the
// pool; otherwise archived pages are re-filed.
func (g *gen) importFile(user int64, n int, freshPages bool) op {
	type entry struct {
		url, title string
	}
	byFolder := map[string][]entry{}
	var tops, urls []string
	subs := map[string][]string{}
	at := g.clock()
	for i := 0; i < n; i++ {
		var id int64
		if freshPages {
			id = g.fresh()
		} else {
			id = g.zipfPage()
		}
		p := g.w.corpus.Page(id)
		leaf := g.w.corpus.Topics[p.Topic]
		top := g.w.corpus.Topics[leaf.Parent].Name
		path := top + "/" + leaf.Name
		if byFolder[path] == nil {
			if subs[top] == nil {
				tops = append(tops, top)
			}
			subs[top] = append(subs[top], leaf.Name)
		}
		byFolder[path] = append(byFolder[path], entry{p.URL, p.Title})
		urls = append(urls, p.URL)
	}
	var b bytes.Buffer
	b.WriteString("<!DOCTYPE NETSCAPE-Bookmark-file-1>\n<TITLE>Bookmarks</TITLE>\n<H1>Bookmarks</H1>\n<DL><p>\n")
	for _, top := range tops {
		fmt.Fprintf(&b, "    <DT><H3>%s</H3>\n    <DL><p>\n", top)
		for _, sub := range subs[top] {
			fmt.Fprintf(&b, "        <DT><H3>%s</H3>\n        <DL><p>\n", sub)
			for _, e := range byFolder[top+"/"+sub] {
				fmt.Fprintf(&b, "            <DT><A HREF=\"%s\" ADD_DATE=\"%d\">%s</A>\n", e.url, at.Unix(), e.title)
			}
			b.WriteString("        </DL><p>\n")
		}
		b.WriteString("    </DL><p>\n")
	}
	b.WriteString("</DL><p>\n")
	// The importer now has these folders to ask Trails about.
	for i := range g.askers {
		if a := &g.askers[i]; a.user == user {
			for _, top := range tops {
				for _, sub := range subs[top] {
					if f := "/" + top + "/" + sub; !slices.Contains(a.folders, f) {
						a.folders = append(a.folders, f)
					}
				}
			}
		}
	}
	return op{kind: opImport, user: user, at: at, body: b.Bytes(), urls: urls}
}

// probe makes a probe page — one unique letters-only marker term among
// ordinary topical text, with out-links into the corpus — registers it
// with the source, and returns the visit that submits it.
func (g *gen) probe(user int64) op {
	g.probeN++
	const letters = "bcdfghjkmnpqrtvwxz"
	marker := []byte("zq")
	for n, i := uint64(g.seed)*1_000_003+uint64(g.probeN), 0; i < 10; i++ {
		marker = append(marker, letters[n%uint64(len(letters))])
		n /= uint64(len(letters))
	}
	marker = append(marker, 'q') // no Porter suffix rule ends in q: the term is indexed as written
	leaves := g.w.corpus.Leaves()
	leaf := leaves[g.rng.Intn(len(leaves))]
	words := []string{string(marker)}
	for i := 0; i < 40; i++ {
		words = append(words, leaf.Vocab[g.rng.Intn(len(leaf.Vocab))])
	}
	c := core.Content{
		URL:   fmt.Sprintf("http://probe.example.org/s%d/p%d.html", g.seed, g.probeN),
		Title: fmt.Sprintf("probe %d", g.probeN),
		Text:  strings.Join(words, " "),
	}
	for i := 0; i < 3; i++ {
		c.Links = append(c.Links, g.w.corpus.Pages[g.rng.Intn(len(g.w.corpus.Pages))].URL)
	}
	g.w.source.probes[c.URL] = c
	return op{kind: opProbe, user: user, url: c.URL, at: g.clock(), query: string(marker)}
}

// queries appends a round's read requests: searches of two or three terms
// from the leaf vocabulary of a Zipf-chosen archived page, then Trails,
// Recommend and Usage for seeded askers.
func (g *gen) queries(ops []op, n roundSize) []op {
	for i := 0; i < n.searches; i++ {
		vocab := g.w.corpus.Topics[g.w.corpus.Page(g.zipfPage()).Topic].Vocab
		terms := make([]string, 2+g.rng.Intn(2))
		for j := range terms {
			u := g.rng.Float64()
			terms[j] = vocab[int(u*u*float64(len(vocab)))]
		}
		ops = append(ops, op{kind: opSearch, user: g.asker().user, query: strings.Join(terms, " ")})
	}
	for i := 0; i < n.trails; i++ {
		a := g.asker()
		ops = append(ops, op{kind: opTrails, user: a.user, folder: a.folders[g.rng.Intn(len(a.folders))]})
	}
	for i := 0; i < n.recommends; i++ {
		ops = append(ops, op{kind: opRecommend, user: g.asker().user})
	}
	for i := 0; i < n.usage; i++ {
		ops = append(ops, op{kind: opUsage, user: g.asker().user})
	}
	return ops
}

// asker draws a user that already has folders.
func (g *gen) asker() asker {
	for {
		if a := g.askers[g.rng.Intn(len(g.askers))]; len(a.folders) > 0 {
			return a
		}
	}
}

// crawlRound: robots walk the fresh pool while importers upload bookmark
// files, each import followed at once by a probe visit of the importer, so
// the probe queues behind the burst; then drain, one mining pass, and the
// queries over the archive as it now stands.
func (g *gen) crawlRound(n roundSize) []op {
	var ops []op
	every := n.visits / n.imports
	for i := 0; i < n.visits; i++ {
		ops = append(ops, g.crawlVisit(i%robots))
		if (i+1)%every == 0 && (i+1)/every <= n.imports {
			user := g.askers[g.probeN%importers].user
			ops = append(ops, g.importFile(user, n.importSize, true), g.probe(user))
		}
	}
	ops = append(ops, op{kind: opDrain}, op{kind: opMine})
	return g.queries(ops, n)
}

// recallRound: revisits replay archived trace visits (same user, page and
// referrer, so the write path is all map hits), an asker re-files a few
// archived pages, probes arrive on an idle queue, then the queries.
func (g *gen) recallRound(n roundSize) []op {
	var ops []op
	for i := 0; i < n.visits; i++ {
		v := g.w.visits[g.rng.Intn(g.preloaded)]
		ops = append(ops, op{kind: opVisit, user: v.User, url: g.w.url(v.Page), ref: g.w.referrer(v), at: g.clock()})
	}
	for i := 0; i < n.imports; i++ {
		ops = append(ops, g.importFile(g.asker().user, n.importSize, false))
	}
	ops = append(ops, op{kind: opDrain})
	for i := 0; i < n.probes; i++ {
		ops = append(ops, g.probe(g.asker().user))
	}
	ops = append(ops, op{kind: opDrain}, op{kind: opMine})
	return g.queries(ops, n)
}

// mixedRound: the next trace visits and bookmarks in trace order, with the
// import, the probes and every query dropped in at seeded positions; then
// drain and one mining pass.
func (g *gen) mixedRound(n roundSize) []op {
	var base []op
	for i := 0; i < n.visits; i++ {
		v := g.w.visits[g.nextVisit]
		g.nextVisit++
		base = append(base, op{kind: opVisit, user: v.User, url: g.w.url(v.Page), ref: g.w.referrer(v), at: v.Time})
		g.ranked = append(g.ranked, v.Page)
		if (i+1)%(n.visits/n.bookmarks) == 0 && g.nextBookmark < len(g.w.bookmarks) {
			b := g.w.bookmarks[g.nextBookmark]
			g.nextBookmark++
			base = append(base, op{kind: opBookmark, user: b.User, url: g.w.url(b.Page), folder: b.Folder, at: b.Time})
		}
	}
	var extra []op
	for i := 0; i < n.imports; i++ {
		extra = append(extra, g.importFile(g.asker().user, n.importSize, true))
	}
	for i := 0; i < n.probes; i++ {
		extra = append(extra, g.probe(g.asker().user))
	}
	extra = g.queries(extra, n)
	// Seeded positions: the extras, shuffled, go before base[pos] for
	// sorted random pos.
	g.rng.Shuffle(len(extra), func(i, j int) { extra[i], extra[j] = extra[j], extra[i] })
	pos := make([]int, len(extra))
	for i := range pos {
		pos[i] = g.rng.Intn(len(base) + 1)
	}
	sort.Ints(pos)
	ops := make([]op, 0, len(base)+len(extra)+2)
	k := 0
	for i := 0; i <= len(base); i++ {
		for ; k < len(extra) && pos[k] == i; k++ {
			ops = append(ops, extra[k])
		}
		if i < len(base) {
			ops = append(ops, base[i])
		}
	}
	return append(ops, op{kind: opDrain}, op{kind: opMine})
}

// digest is a hash of every request of the schedule, byte for byte: the
// same seed must give the same digest, another seed another one.
func (s *schedule) digest() string {
	h := sha256.New()
	var n [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(n[:], uint64(v))
		h.Write(n[:])
	}
	str := func(v string) {
		put(int64(len(v)))
		h.Write([]byte(v))
	}
	put(int64(s.preloadVisits))
	put(int64(s.preloadBookmarks))
	for _, ops := range append([][]op{s.warmup, s.first}, s.rounds...) {
		put(int64(len(ops)))
		for _, o := range ops {
			put(int64(o.kind))
			put(o.user)
			put(o.at.UnixNano())
			str(o.url)
			str(o.ref)
			str(o.folder)
			str(o.query)
			str(string(o.body))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
