package version

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// The microbenchmarks below pin down the three costs the epoch-layer
// redesign targets: publish throughput (O(batch), independent of store
// size), snapshot read throughput as reader count grows (lock-free, so
// per-op cost must stay flat instead of collapsing on a store mutex —
// on multicore hardware aggregate throughput then scales linearly), and
// what tiering adds to the producer's critical section (the merge happens
// off the read path; only the producer side ever waits for it).

func benchStore(keys int) (*Store, []string) {
	s := NewStore()
	names := make([]string, keys)
	b := s.BeginSized(keys)
	for i := range names {
		names[i] = fmt.Sprintf("key%04d", i)
		b.Put(names[i], []byte("value"))
	}
	b.Publish()
	return s, names
}

// BenchmarkPublish128 measures producer throughput at the E9 batch shape
// (128 keys per epoch), tier merges included.
func BenchmarkPublish128(b *testing.B) {
	s, names := benchStore(128)
	val := []byte("v")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := s.BeginSized(len(names))
		for _, k := range names {
			batch.Put(k, val)
		}
		batch.Publish()
	}
}

// BenchmarkSnapshotReadScaling splits b.N Gets over 1, 4, and 16 reader
// goroutines against a shared snapshot-per-reader. Lock-free reads keep
// ns/op flat as readers grow; a store-mutex design degrades instead.
func BenchmarkSnapshotReadScaling(b *testing.B) {
	for _, readers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			s, names := benchStore(1024)
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					snap := s.Acquire()
					defer snap.Release()
					for {
						i := next.Add(1) - 1
						if i >= int64(b.N) {
							return
						}
						snap.Get(names[i%int64(len(names))])
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkSnapshotReadUnderPublish is the contended variant: readers
// drain b.N Gets while one producer publishes continuously. With layered
// snapshots the producer adds no reader-side serialization.
func BenchmarkSnapshotReadUnderPublish(b *testing.B) {
	for _, readers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			s, names := benchStore(1024)
			stop := make(chan struct{})
			var prodWG sync.WaitGroup
			prodWG.Add(1)
			go func() {
				defer prodWG.Done()
				published := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					batch := s.BeginSized(8)
					for k := 0; k < 8; k++ {
						batch.Put(names[(published+k)%len(names)], []byte("new"))
					}
					batch.Publish()
					published++
				}
			}()
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1) - 1
						if i >= int64(b.N) {
							return
						}
						// Re-pin periodically like a real analyzer pass.
						snap := s.Acquire()
						for j := 0; j < 64 && i < int64(b.N); j++ {
							snap.Get(names[i%int64(len(names))])
							i = next.Add(1) - 1
						}
						snap.Release()
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			close(stop)
			prodWG.Wait()
		})
	}
}

// BenchmarkAcquireRelease measures the snapshot pin cost: one atomic
// load plus two atomic adds.
func BenchmarkAcquireRelease(b *testing.B) {
	s, _ := benchStore(128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Acquire().Release()
	}
}

// BenchmarkParallelPublishers measures aggregate publish throughput with
// several concurrent producers (the paper's many-collection ingest mix):
// staging and freezing a layer happen outside the store mutex, so producers
// overlap everything but the install.
func BenchmarkParallelPublishers(b *testing.B) {
	for _, producers := range []int{1, 4} {
		b.Run(fmt.Sprintf("producers=%d", producers), func(b *testing.B) {
			s, names := benchStore(128)
			var next atomic.Int64
			var wg sync.WaitGroup
			val := []byte("v")
			b.ResetTimer()
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1) - 1
						if i >= int64(b.N) {
							return
						}
						batch := s.BeginSized(len(names))
						for _, k := range names {
							batch.Put(k, val)
						}
						batch.Publish()
					}
				}()
			}
			wg.Wait()
		})
	}
}
