package core

import (
	"fmt"
	"testing"

	"memex/internal/version"
)

// BenchmarkInLinkWriteAmplification is the tentpole's proof: the bytes
// (and time) one new in-link costs at publish must be bounded by the
// delta-chunk size — flat as the target's in-degree grows 10× — where the
// pre-chunk scheme re-encoded the target's entire rin/ record per edge,
// making the same metric linear in in-degree. The fullrecord sub-
// benchmarks reproduce that old scheme as the baseline; compare the
// rin-bytes/op metric across the indegree pairs.
func BenchmarkInLinkWriteAmplification(b *testing.B) {
	hub := int64(1 << 40)
	for _, d := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("chunked/indegree=%d", d), func(b *testing.B) {
			vs := version.NewStore()
			li := newLinkIndex(vs)
			for i := 0; i < d; i++ {
				li.publish(int64(i+1), []int64{hub}, nil)
			}
			// Steady state: the accumulated in-degree sits in one
			// consolidated base, as it would after a GC tick.
			li.consolidate(1)
			start := li.rinBytes.Load()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				li.publish(int64(d+i+1), []int64{hub}, nil)
			}
			b.StopTimer()
			b.ReportMetric(float64(li.rinBytes.Load()-start)/float64(b.N), "rin-bytes/op")
		})
		b.Run(fmt.Sprintf("fullrecord/indegree=%d", d), func(b *testing.B) {
			// The pre-chunk write path, reproduced: every new in-link
			// re-encodes and republishes the target's full record.
			vs := version.NewStore()
			ins := make([]int64, d)
			for i := range ins {
				ins[i] = int64(i + 1)
			}
			var rinBytes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ins = append(ins, int64(d+i+1))
				bt := vs.BeginSized(1)
				blob := encodeIDSet(ins)
				rinBytes += int64(len(blob))
				bt.Put(rinKey(hub), blob)
				bt.Publish()
			}
			b.StopTimer()
			b.ReportMetric(float64(rinBytes)/float64(b.N), "rin-bytes/op")
		})
	}
}

// BenchmarkRinChunkMerge prices the read side of the chunk scheme: a
// fresh view's In() probes and merges base + chunk records, so the cost
// grows with the live chain length — which consolidation bounds at the
// threshold between GC ticks. chunks=0 is the pure-base (pre-chunk
// archive) floor.
func BenchmarkRinChunkMerge(b *testing.B) {
	for _, chunks := range []int{0, 8, 64} {
		b.Run(fmt.Sprintf("chunks=%d", chunks), func(b *testing.B) {
			vs := version.NewStore()
			li := newLinkIndex(vs)
			hub := int64(1 << 40) // outside the source-id range: no self-loop
			for i := 0; i <= chunks; i++ {
				li.publish(int64(i+1), []int64{hub}, nil)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				view := testView(vs)
				if got := view.In(hub); len(got) != chunks+1 {
					b.Fatalf("merge lost edges: got %d, want %d", len(got), chunks+1)
				}
				view.sn.Release()
			}
		})
	}
}

// BenchmarkRinConsolidate prices one consolidation round: merging a hub's
// chunk chain back into its base record (the amortized cost the GC demon
// pays so publishes stay O(chunk)).
func BenchmarkRinConsolidate(b *testing.B) {
	for _, d := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("indegree=%d", d), func(b *testing.B) {
			hub := int64(1 << 40)
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				vs := version.NewStore()
				li := newLinkIndex(vs)
				for j := 0; j < d; j++ {
					li.publish(int64(j+1), []int64{hub}, nil)
				}
				b.StartTimer()
				if n := li.consolidate(1); n != 1 {
					b.Fatalf("consolidated %d pages, want 1", n)
				}
				b.StopTimer()
			}
		})
	}
}
