package core

import (
	"fmt"
	"testing"
	"time"

	"memex/internal/events"
	"memex/internal/kvstore"
	"memex/internal/webcorpus"
)

// benchEngine builds a quiesced engine with a seeded archive.
func benchEngine(b *testing.B) *Engine {
	b.Helper()
	c := webcorpus.Generate(webcorpus.Config{Seed: 21, TopTopics: 3, SubPerTopic: 2, PagesPerLeaf: 16})
	e, err := Open(Config{
		Dir:               b.TempDir(),
		Source:            corpusSource{c},
		KV:                kvstore.Options{Sync: kvstore.SyncGroup},
		VersionGCInterval: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	e.RegisterUser(1, "alice")
	n := 0
	for _, leaf := range c.Leaves() {
		for _, pid := range c.LeafPages[leaf.ID][:10] {
			p := c.Page(pid)
			if err := e.RecordVisit(1, p.URL, "", tBase.Add(time.Duration(n)*time.Minute), events.Community); err != nil {
				b.Fatal(err)
			}
			n++
		}
	}
	e.DrainBackground()
	return e
}

// miningPass is the repeated-read workload the cache exists for: a
// themes rebuild plus a HITS-flavoured adjacency sweep plus a
// recommendation — all reading the same epoch's records.
func miningPass(e *Engine, pages []int64) {
	e.RebuildThemes()
	e.withView(func(v *DerivedView) {
		for _, p := range pages {
			v.Out(p)
			v.In(p)
			v.TermCounts(p)
		}
	})
	e.Recommend(1, 5, true)
}

// BenchmarkMiningPassColdVsWarm measures the same themes+HITS+recommend
// pass once the first (cold) pass has filled the shared cache: passes
// after the first serve decoded values. Reported decodes/op is the
// cache-miss count per pass, which should sit near zero.
func BenchmarkMiningPassColdVsWarm(b *testing.B) {
	e := benchEngine(b)
	pages := fetchedPages(e)
	miningPass(e, pages) // cold pass: populate the cache
	m0 := e.cache.stats().Misses
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		miningPass(e, pages)
	}
	b.StopTimer()
	st := e.cache.stats()
	b.ReportMetric(float64(st.Misses-m0)/float64(b.N), "decodes/op")
	if total := st.Hits + st.Misses; total > 0 {
		b.ReportMetric(float64(st.Hits)/float64(total), "hit-ratio")
	}
}

// BenchmarkCacheHitRatioSweep sweeps the cache budget from starved to
// ample over the same repeated pass, reporting the achieved hit ratio —
// the sizing curve behind decodedCacheBytes.
func BenchmarkCacheHitRatioSweep(b *testing.B) {
	for _, budget := range []int64{16 << 10, 64 << 10, 256 << 10, 4 << 20} {
		b.Run(fmt.Sprintf("budget=%dKiB", budget>>10), func(b *testing.B) {
			e := benchEngine(b)
			e.cache = newRecordCache(budget)
			pages := fetchedPages(e)
			miningPass(e, pages)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				miningPass(e, pages)
			}
			b.StopTimer()
			st := e.cache.stats()
			if total := st.Hits + st.Misses; total > 0 {
				b.ReportMetric(float64(st.Hits)/float64(total), "hit-ratio")
			}
			b.ReportMetric(float64(st.EvictedLRU), "evictions")
		})
	}
}
