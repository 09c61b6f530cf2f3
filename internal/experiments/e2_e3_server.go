package experiments

import (
	"fmt"
	"os"
	"time"

	"memex/internal/classify"
	"memex/internal/core"
	"memex/internal/events"
	"memex/internal/sim"
	"memex/internal/text"
	"memex/internal/trails"
	"memex/internal/webcorpus"
)

// corpusSource adapts the synthetic web to the engine.
type corpusSource struct {
	c *webcorpus.Corpus
}

// Lookup implements core.PageSource.
func (s corpusSource) Lookup(url string) (core.Content, bool) {
	id, ok := s.c.ByURL[url]
	if !ok {
		return core.Content{}, false
	}
	p := s.c.Page(id)
	links := make([]string, 0, len(p.Links))
	for _, l := range p.Links {
		links = append(links, s.c.Page(l).URL)
	}
	return core.Content{URL: p.URL, Title: p.Title, Text: p.Text, Links: links}, true
}

// E2 regenerates Figure 2: selecting a folder in the trail tab replays the
// recent topical browsing context, with membership decided by the trained
// classifier (as the real trail tab does, "pages … most likely to belong
// to the selected topic"). We measure retrieval latency and the topical
// precision of the replayed graph against ground truth.
func E2(seed int64) *Report {
	startAll := time.Now()
	corpus := webcorpus.Generate(webcorpus.Config{Seed: seed, TopTopics: 4, SubPerTopic: 3, PagesPerLeaf: 30})
	trace := sim.Simulate(corpus, sim.Config{Seed: seed + 1, Users: 30, Days: 20})

	// Train the folder classifier from a handful of labelled pages per
	// leaf (the user's explicit bookmarks).
	trainer := classify.NewTrainer(nil)
	for _, leaf := range corpus.Leaves() {
		for i, pid := range corpus.LeafPages[leaf.ID] {
			if i == 6 {
				break
			}
			trainer.AddCounts(leaf.Path, text.TermCounts(corpus.Page(pid).Text))
		}
	}
	model, err := trainer.Train(classify.Options{})
	if err != nil {
		return &Report{ID: "E2", Finding: err.Error()}
	}
	// Classify every page once (the demons' cached guesses).
	guess := make(map[int64]string, len(corpus.Pages))
	for _, p := range corpus.Pages {
		got, _ := model.Classify(text.TermCounts(p.Text))
		guess[p.ID] = got
	}

	visits := make([]trails.Visit, len(trace.Visits))
	for i, v := range trace.Visits {
		visits[i] = trails.Visit{User: v.User, Page: v.Page, Referrer: v.Referrer, Time: v.Time}
	}
	now := trace.Visits[len(trace.Visits)-1].Time.Add(time.Hour)

	var rows [][]string
	var lat []time.Duration
	var precSum float64
	queries := 0
	for _, u := range trace.Users[:10] {
		for tid := range u.Interests {
			topic := tid
			path := corpus.TopicPath(topic)
			filter := trails.Filter{
				User:  0, // community-wide, as the trail tab shows
				Topic: func(p int64) bool { return guess[p] == path },
			}
			t0 := time.Now()
			tg := trails.Replay(visits, filter, 0, now, 0)
			lat = append(lat, time.Since(t0))
			if len(tg.Nodes) == 0 {
				continue
			}
			on := 0
			for _, p := range tg.Top(20) {
				if corpus.Page(p).Topic == topic {
					on++
				}
			}
			prec := float64(on) / float64(minI(20, len(tg.Nodes)))
			precSum += prec
			queries++
			if queries <= 5 {
				rows = append(rows, []string{
					path,
					fmt.Sprint(len(tg.Nodes)),
					fmt.Sprint(len(tg.Edges)),
					fmtPct(prec),
					fmtDur(lat[len(lat)-1]),
				})
			}
		}
	}
	meanPrec := precSum / float64(maxI(queries, 1))
	r := &Report{
		ID:     "E2",
		Title:  "Trail tab: topical context replay (Figure 2)",
		Claim:  "selecting a folder replays the recent community trail graph for that topic",
		Header: []string{"topic", "pages", "transitions", "precision", "latency"},
		Rows:   rows,
		Metrics: map[string]float64{
			"precision":  meanPrec,
			"latency_ms": float64(percentile(lat, 50)) / float64(time.Millisecond),
		},
		Elapsed: time.Since(startAll),
	}
	r.Rows = append(r.Rows, []string{"mean over " + fmt.Sprint(queries) + " queries", "", "",
		fmtPct(meanPrec), fmtDur(percentile(lat, 50)) + " p50"})
	r.Finding = fmt.Sprintf("replay precision %.0f%% at p50 latency %v over %d community trail queries",
		100*meanPrec, percentile(lat, 50).Round(time.Microsecond), queries)
	return r
}

// E3 regenerates the Figure 3 architecture claim (§3): UI events get
// guaranteed-immediate processing while heavyweight analysis runs behind
// the queue; the demons catch up asynchronously and shed load rather than
// block the foreground.
func E3(seed int64) *Report {
	start := time.Now()
	corpus := webcorpus.Generate(webcorpus.Config{Seed: seed, TopTopics: 4, SubPerTopic: 3, PagesPerLeaf: 30})
	trace := sim.Simulate(corpus, sim.Config{Seed: seed + 1, Users: 30, Days: 10})

	dir, err := os.MkdirTemp("", "memex-e3")
	if err != nil {
		return &Report{ID: "E3", Finding: err.Error()}
	}
	defer os.RemoveAll(dir)
	eng, err := core.Open(core.Config{Dir: dir, Source: corpusSource{corpus}})
	if err != nil {
		return &Report{ID: "E3", Finding: err.Error()}
	}
	defer eng.Close()
	for _, u := range trace.Users {
		eng.RegisterUser(u.ID, u.Name)
	}

	// Foreground ack latency under a burst of events.
	n := minI(len(trace.Visits), 3000)
	acks := make([]time.Duration, 0, n)
	t0 := time.Now()
	for _, v := range trace.Visits[:n] {
		var ref string
		if v.Referrer != 0 {
			ref = corpus.Page(v.Referrer).URL
		}
		s := time.Now()
		eng.RecordVisit(v.User, corpus.Page(v.Page).URL, ref, v.Time, events.Community)
		acks = append(acks, time.Since(s))
	}
	ingestWall := time.Since(t0)
	// Background catch-up.
	t1 := time.Now()
	eng.DrainBackground()
	catchUp := time.Since(t1)
	st := eng.Status()

	fgRate := float64(n) / ingestWall.Seconds()
	r := &Report{
		ID:     "E3",
		Title:  "Foreground event path vs background demons (§3, Figure 3)",
		Claim:  "UI events are guaranteed immediate processing; analysis proceeds asynchronously",
		Header: []string{"measure", "value"},
		Rows: [][]string{
			{"events logged (foreground)", fmt.Sprint(n)},
			{"foreground ack p50", fmtDur(percentile(acks, 50))},
			{"foreground ack p99", fmtDur(percentile(acks, 99))},
			{"foreground throughput", fmt.Sprintf("%.0f events/s", fgRate)},
			{"background catch-up after burst", catchUp.Round(time.Millisecond).String()},
			{"pages fetched+indexed by demons", fmt.Sprint(st.PagesIndexed)},
			{"events shed under overload", fmt.Sprint(st.EventsDropped)},
		},
		Metrics: map[string]float64{
			"ack_p50_us":      float64(percentile(acks, 50)) / float64(time.Microsecond),
			"ack_p99_us":      float64(percentile(acks, 99)) / float64(time.Microsecond),
			"fg_events_per_s": fgRate,
		},
		Elapsed: time.Since(start),
	}
	r.Finding = fmt.Sprintf(
		"foreground acks in %v p50 / %v p99 (%.0f ev/s) while demons indexed %d pages asynchronously; queue shed %d",
		percentile(acks, 50).Round(time.Microsecond), percentile(acks, 99).Round(time.Microsecond),
		fgRate, st.PagesIndexed, st.EventsDropped)
	return r
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
