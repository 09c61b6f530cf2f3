package version

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"memex/internal/kvstore"
)

// openBenchCold builds a disk-backed store in a fresh temp dir.
func openBenchCold(b *testing.B, o Options) (*kvstore.Store, *Store) {
	b.Helper()
	kv, err := kvstore.Open(filepath.Join(b.TempDir(), "kv"), kvstore.Options{Sync: kvstore.SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	s, err := Open(kv, "vc/", o)
	if err != nil {
		b.Fatal(err)
	}
	return kv, s
}

// BenchmarkFoldBoundedMemory is the ISSUE 3 acceptance benchmark: ingest
// 10× the fold threshold with a GC tick per threshold's worth and report the heap high-water
// and the in-memory entry high-water. With the cold tier the heap curve
// stays flat at roughly the threshold's working set no matter how much is
// ingested; TestFoldBoundsMemory asserts the deterministic half (entry
// count bounded, zero lost epochs across restart).
func BenchmarkFoldBoundedMemory(b *testing.B) {
	const threshold = foldMinEntries
	val := make([]byte, 256)
	for i := range val {
		val[i] = byte(i)
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		kv, s := openBenchCold(b, Options{})
		runtime.GC()
		var base runtime.MemStats
		runtime.ReadMemStats(&base)
		b.StartTimer()

		total := 10 * threshold
		heapHigh, memHigh := uint64(0), 0
		for j := 0; j < total; j++ {
			bt := s.BeginSized(1)
			bt.Put(fmt.Sprintf("page-%07d", j), val)
			if err := bt.Publish(); err != nil {
				b.Fatal(err)
			}
			if j%threshold == threshold-1 {
				if n := s.VersionCount(); n > memHigh {
					memHigh = n
				}
				s.GC()
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > heapHigh {
					heapHigh = ms.HeapAlloc
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(heapHigh-base.HeapAlloc)/(1<<20), "heapMB-high")
		b.ReportMetric(float64(memHigh), "hot-entries-high")
		b.ReportMetric(float64(s.ColdRecords()), "cold-records")
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		kv.Close()
		b.StartTimer()
	}
}

// BenchmarkSnapshotGetHotDuringFold guards the hot read path against the
// cold tier's bulk writes: in-memory chain hits never touch the kvstore,
// so their ~20ns latency must hold while folds run in the background.
func BenchmarkSnapshotGetHotDuringFold(b *testing.B) {
	kv, s := openBenchCold(b, Options{})
	defer kv.Close()
	// A cold base (folded) plus a hot working set that keeps re-folding.
	for i := 0; i < 4096; i++ {
		bt := s.BeginSized(1)
		bt.Put(fmt.Sprintf("cold-%05d", i), []byte("x"))
		bt.Publish()
	}
	if _, err := s.Fold(); err != nil {
		b.Fatal(err)
	}
	hot := make([]string, 512)
	for i := range hot {
		hot[i] = fmt.Sprintf("hot-%04d", i)
		bt := s.BeginSized(1)
		bt.Put(hot[i], []byte("y"))
		bt.Publish()
	}

	stop := make(chan struct{})
	foldDone := make(chan struct{})
	var folds atomic.Int64
	go func() {
		defer close(foldDone)
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Keep churning: republish the hot set and fold it down.
			bt := s.BeginSized(len(hot))
			for _, k := range hot {
				bt.Put(k, []byte("y"))
			}
			bt.Publish()
			if _, err := s.Fold(); err == nil {
				folds.Add(1)
			}
			i++
		}
	}()

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			sn := s.Acquire()
			if _, ok := sn.Get(hot[i%len(hot)]); !ok {
				b.Fatal("hot key missing")
			}
			sn.Release()
			i++
		}
	})
	b.StopTimer()
	close(stop)
	<-foldDone
	b.ReportMetric(float64(folds.Load()), "folds")
}

// BenchmarkSnapshotGetColdMiss prices the fallthrough itself: a chain
// miss that resolves from the cold tier (one short B+tree prefix scan).
func BenchmarkSnapshotGetColdMiss(b *testing.B) {
	kv, s := openBenchCold(b, Options{})
	defer kv.Close()
	const n = 8192
	keys := make([]string, n)
	for i := 0; i < n; i++ {
		keys[i] = fmt.Sprintf("cold-%05d", i)
		bt := s.BeginSized(1)
		bt.Put(keys[i], []byte("value-bytes-here"))
		bt.Publish()
	}
	if _, err := s.Fold(); err != nil {
		b.Fatal(err)
	}
	sn := s.Acquire()
	defer sn.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := sn.Get(keys[i%n]); !ok {
			b.Fatal("cold key missing")
		}
	}
}
