package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"memex/internal/classify"
	"memex/internal/textindex"
	"memex/internal/version"
	"memex/internal/webcorpus"
)

// E8 regenerates the §2 baseline feature: "a standard full-text search
// over all pages visited" — index-build rate, query latency, and
// throughput under both ranking functions.
func E8(seed int64) *Report {
	start := time.Now()
	corpus := webcorpus.Generate(webcorpus.Config{Seed: seed, TopTopics: 8, SubPerTopic: 6, PagesPerLeaf: 45})

	ix := textindex.New(nil)
	t0 := time.Now()
	for _, p := range corpus.Pages {
		ix.Add(p.ID, p.Title+" "+p.Text)
	}
	buildTime := time.Since(t0)

	// Query mix: topical vocabulary terms.
	rng := rand.New(rand.NewSource(seed))
	var queries []string
	leaves := corpus.Leaves()
	for i := 0; i < 200; i++ {
		leaf := leaves[rng.Intn(len(leaves))]
		top := corpus.Topics[leaf.Parent]
		q := fmt.Sprintf("%s_%s%02d %s_%s%02d",
			top.Name, leaf.Name, rng.Intn(10), top.Name, leaf.Name, rng.Intn(10))
		queries = append(queries, q)
	}

	bench := func(scoring textindex.Scoring) (p50, p99 time.Duration, qps float64, hits int) {
		var lat []time.Duration
		total := 0
		t0 := time.Now()
		for _, q := range queries {
			s := time.Now()
			hs := ix.Search(q, 10, scoring)
			lat = append(lat, time.Since(s))
			total += len(hs)
		}
		wall := time.Since(t0)
		return percentile(lat, 50), percentile(lat, 99),
			float64(len(queries)) / wall.Seconds(), total
	}
	p50b, p99b, qpsB, hitsB := bench(textindex.BM25)
	p50t, p99t, qpsT, _ := bench(textindex.TFIDF)

	r := &Report{
		ID:     "E8",
		Title:  "Full-text search over the archive (§2)",
		Claim:  "standard ranked keyword search over every page visited",
		Header: []string{"measure", "BM25", "TF-IDF"},
		Rows: [][]string{
			{"indexed pages", fmt.Sprint(ix.Docs()), fmt.Sprint(ix.Docs())},
			{"distinct terms", fmt.Sprint(ix.Terms()), fmt.Sprint(ix.Terms())},
			{"index build", buildTime.Round(time.Millisecond).String(), "-"},
			{"query p50", fmtDur(p50b), fmtDur(p50t)},
			{"query p99", fmtDur(p99b), fmtDur(p99t)},
			{"throughput", fmt.Sprintf("%.0f q/s", qpsB), fmt.Sprintf("%.0f q/s", qpsT)},
		},
		Metrics: map[string]float64{
			"qps_bm25": qpsB, "qps_tfidf": qpsT,
			"p50_us": float64(p50b) / float64(time.Microsecond),
		},
		Elapsed: time.Since(start),
	}
	r.Finding = fmt.Sprintf("%d pages, %d terms; BM25 %.0f q/s at %v p50 (%d hits over %d queries)",
		ix.Docs(), ix.Terms(), qpsB, p50b.Round(time.Microsecond), hitsB, len(queries))
	return r
}

// E9 regenerates the §3 storage-coordination claim: the loosely-consistent
// versioning layer lets one producer publish continuously while consumers
// read consistent snapshots, far outpacing a single-lock design, with
// bounded staleness and zero consistency violations.
func E9(seed int64) *Report {
	start := time.Now()
	const keys = 128
	// window-based run below; see `window`
	const consumers = 4
	keyNames := make([]string, keys)
	for k := range keyNames {
		keyNames[k] = fmt.Sprintf("key%04d", k)
	}
	// analyze models the statistical analyzers' per-key compute (classifier
	// updates, clustering distance computations): real computation that
	// dwarfs the raw read.
	analyze := func(v []byte) uint64 {
		var h uint64 = 14695981039346656037
		for r := 0; r < 600; r++ {
			for _, b := range v {
				h = (h ^ uint64(b)) * 1099511628211
			}
		}
		return h
	}
	// Memex's analyzers are not pure compute: mid-pass they persist partial
	// aggregates (the indexer flushes posting lists, the clusterer writes
	// centroid updates back to the RDBMS). checkpointEvery/checkpointCost
	// model that blocking step. The pass keeps reading derived state after
	// each checkpoint, so the single-lock design must hold the lock across
	// it — releasing mid-pass would let the producer move the state under
	// the scan and tear consistency. Snapshot isolation instead lets the
	// producer (and the other analyzers) overlap those stalls.
	//
	// The blocking step is the experiment's model, not a tuning knob: with
	// a pure-CPU pass, CPU contention and lock contention coincide (on one
	// core exactly; approximately as cores saturate), so a global mutex
	// costs the producer nothing and no storage design can beat it — the
	// paper's "never blocks the producer" claim is only observable when
	// the lock is held across wall-clock time that isn't CPU time. Remove
	// checkpointCost and E9 stops measuring the claim at all.
	const checkpointEvery = 32
	const checkpointCost = 500 * time.Microsecond

	// Both designs run for a fixed wall-clock window with the producer and
	// consumers live simultaneously; we report both sides' rates plus the
	// producer-side publish latency, the direct measure of "never blocks
	// the producer". The versioned design lets all parties proceed
	// independently; the single-lock design serialises consumer scans
	// against producer batches.
	const window = 400 * time.Millisecond

	// The paper's Memex server is a multiprocessor machine: the crawler
	// and the analyzer demons genuinely run in parallel. On a single-CPU
	// CI box Go's scheduler gives the never-blocking producer ~10ms quanta
	// that starve the sleeping analyzers of timely wakeups, measuring the
	// scheduler instead of the store. Emulate the paper's hardware by
	// letting the OS timeshare one thread per party for the experiment.
	if runtime.GOMAXPROCS(0) < consumers+1 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(consumers + 1))
	}

	runVersioned := func() (pubPerS, scansPerS float64, pubP99 time.Duration, violations int64, maxStale uint64, st version.Stats) {
		// Each 128-key batch commits atomically, so the consumers'
		// all-keys-agree check verifies publish atomicity.
		s := version.NewStore()
		b := s.BeginSized(keys)
		for _, k := range keyNames {
			b.Put(k, []byte("0"))
		}
		b.Publish()

		var stop atomic.Bool
		var readCount, viol atomic.Int64
		var staleMax atomic.Uint64
		var wg sync.WaitGroup
		var sink atomic.Uint64
		for c := 0; c < consumers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					snap := s.Acquire()
					var first []byte
					ok := true
					for i, k := range keyNames {
						v, got := snap.Get(k)
						if !got {
							ok = false
							break
						}
						sink.Add(analyze(v))
						if (i+1)%checkpointEvery == 0 {
							time.Sleep(checkpointCost) // persist partial aggregates
						}
						if i == 0 {
							first = v
						} else if string(v) != string(first) {
							ok = false
							break
						}
					}
					if !ok {
						viol.Add(1)
					}
					stale := s.Watermark() - snap.Epoch()
					for {
						cur := staleMax.Load()
						if stale <= cur || staleMax.CompareAndSwap(cur, stale) {
							break
						}
					}
					snap.Release()
					readCount.Add(1)
				}
			}()
		}
		t0 := time.Now()
		published := 0
		var pubLat []time.Duration
		for time.Since(t0) < window {
			p0 := time.Now()
			b := s.BeginSized(keys)
			val := []byte(fmt.Sprint(published))
			for _, k := range keyNames {
				b.Put(k, val)
			}
			b.Publish()
			pubLat = append(pubLat, time.Since(p0))
			published++
		}
		wall := time.Since(t0)
		stop.Store(true)
		wg.Wait()
		return float64(published) / wall.Seconds(),
			float64(readCount.Load()) / wall.Seconds(),
			percentile(pubLat, 99), viol.Load(), staleMax.Load(), s.StoreStats()
	}

	runMutex := func() (pubPerS, scansPerS float64, pubP99 time.Duration) {
		// The design the paper avoided: derived data guarded by one lock,
		// so an analyzer's scan blocks the producer for its whole pass —
		// checkpoints included — because the scan must be atomic to stay
		// consistent.
		var mu sync.Mutex
		state := map[string][]byte{}
		for _, k := range keyNames {
			state[k] = []byte("0")
		}
		var stop atomic.Bool
		var readCount atomic.Int64
		var sink atomic.Uint64
		var wg sync.WaitGroup
		for c := 0; c < consumers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					mu.Lock() // the whole consistent scan holds the lock
					for i, k := range keyNames {
						sink.Add(analyze(state[k]))
						if (i+1)%checkpointEvery == 0 {
							//memexvet:ignore lockiter deliberately models the paper's rejected design: a checkpoint blocking the producer inside the lock
							time.Sleep(checkpointCost) // persist partial aggregates
						}
					}
					mu.Unlock()
					readCount.Add(1)
				}
			}()
		}
		t0 := time.Now()
		published := 0
		var pubLat []time.Duration
		for time.Since(t0) < window {
			p0 := time.Now()
			mu.Lock()
			val := []byte(fmt.Sprint(published))
			for _, k := range keyNames {
				state[k] = val
			}
			mu.Unlock()
			pubLat = append(pubLat, time.Since(p0))
			published++
		}
		wall := time.Since(t0)
		stop.Store(true)
		wg.Wait()
		return float64(published) / wall.Seconds(),
			float64(readCount.Load()) / wall.Seconds(), percentile(pubLat, 99)
	}

	vPub, vReads, vP99, vViol, vStale, vStats := runVersioned()
	mPub, mReads, mP99 := runMutex()

	r := &Report{
		ID:     "E9",
		Title:  "Loosely-consistent versioning: producer vs consumers (§3)",
		Claim:  "one producer publishes while consumers read consistent snapshots without blocking it",
		Header: []string{"measure", "versioned store", "global mutex"},
		Rows: [][]string{
			{"producer batches/s", fmt.Sprintf("%.0f", vPub), fmt.Sprintf("%.0f", mPub)},
			{"publish p99", fmtDur(vP99), fmtDur(mP99)},
			{"consumer scans/s (all 4)", fmt.Sprintf("%.0f", vReads), fmt.Sprintf("%.0f", mReads)},
			{"combined work/s (pub+scan)", fmt.Sprintf("%.0f", vPub+vReads), fmt.Sprintf("%.0f", mPub+mReads)},
			{"consistency violations", fmt.Sprint(vViol), "n/a (blocking)"},
			{"max snapshot staleness (epochs)", fmt.Sprint(vStale), "0 (serial)"},
			{"chain depth (layers)", fmt.Sprint(vStats.Layers), "n/a"},
			{"superseded versions reclaimed (tier merges)", fmt.Sprint(vStats.GCReclaimed), "n/a (overwrites in place)"},
		},
		Metrics: map[string]float64{
			"pub_versioned": vPub, "pub_mutex": mPub,
			"scans_versioned": vReads, "scans_mutex": mReads,
			"pub_p99_us_versioned": float64(vP99) / float64(time.Microsecond),
			"pub_p99_us_mutex":     float64(mP99) / float64(time.Microsecond),
			"violations":           float64(vViol),
			"gc_reclaimed":         float64(vStats.GCReclaimed),
		},
		Elapsed: time.Since(start),
	}
	r.Finding = fmt.Sprintf(
		"versioned: %.0f batches/s (p99 %v) + %.0f scans/s with 0 violations and staleness ≤ %d; single lock: %.0f batches/s (p99 %v) with %.0f scans/s (producer and analyzers serialized)",
		vPub, vP99.Round(time.Microsecond), vReads, vStale, mPub, mP99.Round(time.Microsecond), mReads)
	if vViol > 0 {
		r.Finding = fmt.Sprintf("CONSISTENCY VIOLATIONS: %d", vViol)
	}
	return r
}

// E10 regenerates the Figure 1 interaction loop: the user's cut/paste
// corrections continually improve the classifier. Starting from a few
// seeds per folder, each round adds corrected labels for the model's worst
// guesses and retrains.
func E10(seed int64) *Report {
	start := time.Now()
	corpus := webcorpus.Generate(webcorpus.Config{
		Seed: seed, TopTopics: 6, SubPerTopic: 4, PagesPerLeaf: 40,
		FrontPageFrac: 0.4,
	})

	// Task: classify pages into leaf topics. Pool = all pages; start with
	// 3 labelled per topic; each round the user corrects 2 wrong guesses
	// per topic (simulating cut/paste in the folder tab).
	rng := rand.New(rand.NewSource(seed))
	labelled := map[int64]string{}
	for _, leaf := range corpus.Leaves() {
		ids := corpus.LeafPages[leaf.ID]
		for i := 0; i < 3; i++ {
			labelled[ids[rng.Intn(len(ids))]] = leaf.Path
		}
	}
	truthOf := func(p *webcorpus.Page) string { return corpus.TopicPath(p.Topic) }

	var rows [][]string
	var lastAcc float64
	for round := 0; round <= 5; round++ {
		trainer := classify.NewTrainer(nil)
		for page, label := range labelled {
			trainer.AddCounts(label, termCounts(corpus.Page(page)))
		}
		model, err := trainer.Train(classify.Options{})
		if err != nil {
			return &Report{ID: "E10", Finding: err.Error()}
		}
		// Evaluate on the unlabelled pool; collect mistakes per topic.
		correct, total := 0, 0
		mistakes := map[string][]int64{}
		for _, p := range corpus.Pages {
			if _, ok := labelled[p.ID]; ok {
				continue
			}
			got, _ := model.Classify(termCounts(&p))
			want := truthOf(&p)
			total++
			if got == want {
				correct++
			} else {
				mistakes[want] = append(mistakes[want], p.ID)
			}
		}
		lastAcc = float64(correct) / float64(maxI(total, 1))
		rows = append(rows, []string{
			fmt.Sprint(round),
			fmt.Sprint(len(labelled)),
			fmtPct(lastAcc),
		})
		// User corrects 2 mistakes per topic (moves them to the right
		// folder — which clears the guess and adds a training example).
		for topic, ids := range mistakes {
			for i := 0; i < 2 && i < len(ids); i++ {
				labelled[ids[i]] = topic
			}
		}
	}

	r := &Report{
		ID:     "E10",
		Title:  "Reinforce/correct loop: classifier improves with cut/paste (§2, Fig 1)",
		Claim:  "user corrections continually improve Memex's models of the user's topics",
		Header: []string{"round", "labelled pages", "accuracy on rest"},
		Rows:   rows,
		Metrics: map[string]float64{
			"final_accuracy": lastAcc,
		},
		Elapsed: time.Since(start),
	}
	first := rows[0][2]
	r.Finding = fmt.Sprintf("accuracy %s → %s over 5 correction rounds", first, rows[len(rows)-1][2])
	return r
}
