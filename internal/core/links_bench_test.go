package core

import (
	"fmt"
	"testing"

	"memex/internal/kvstore"
	"memex/internal/text"
	"memex/internal/version"
)

// BenchmarkInLinkWriteAmplification prints what the one-record design
// trades: a new in-link rewrites the target's whole rin/ record, so the
// rin-bytes/op metric (and the time) grows linearly with the target's
// in-degree. The benchmark's world has in-degree p99 6, max 9 (DESIGN.md
// §4); the slope is kept a printed number for the day that changes. Each
// op adds one in-link to a hub holding between d and 2d of them — a fresh
// store is seeded with d, through publish and off the clock, whenever it
// reaches 2d — and the hub's rin/ record it rewrote is read back through a
// snapshot, off the clock too. Each fresh store takes its own keyspace of
// one kvstore, which nothing is folded into.
func BenchmarkInLinkWriteAmplification(b *testing.B) {
	hub := int64(1 << 40)
	for _, d := range []int{10, 100, 1_000} {
		b.Run(fmt.Sprintf("indegree=%d", d), func(b *testing.B) {
			kv, err := kvstore.Open(b.TempDir(), kvstore.Options{Sync: kvstore.SyncGroup})
			if err != nil {
				b.Fatal(err)
			}
			defer kv.Close()
			var li *linkIndex
			var rinBytes int64
			indeg := 2 * d
			for i := 0; i < b.N; i++ {
				if indeg == 2*d {
					b.StopTimer()
					vs, err := version.Open(kv, fmt.Sprintf("vc%d/", i), version.Options{})
					if err != nil {
						b.Fatal(err)
					}
					li = newLinkIndex(vs, text.NewDict(), nil)
					for src := 1; src <= d; src++ {
						if err := li.publish([]linkUpdate{{from: int64(src), targets: []int64{hub}}}); err != nil {
							b.Fatal(err)
						}
					}
					indeg = d
					b.StartTimer()
				}
				indeg++
				if err := li.publish([]linkUpdate{{from: int64(indeg), targets: []int64{hub}}}); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				sn := li.vs.Acquire()
				rin, _ := sn.Get(rinKey(hub))
				sn.Release()
				rinBytes += int64(len(rin))
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(rinBytes)/float64(b.N), "rin-bytes/op")
		})
	}
}
