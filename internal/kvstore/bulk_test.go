package kvstore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPutBatchMixesPutsAndDeletes: one batch carries puts and deletes,
// applied in order, as one commit.
func TestPutBatchMixesPutsAndDeletes(t *testing.T) {
	s := openTemp(t, Options{Sync: SyncGroup})
	var pairs []KV
	for i := 0; i < 1000; i++ {
		pairs = append(pairs, KV{
			Key:   []byte(fmt.Sprintf("bulk-%04d", i)),
			Value: []byte(fmt.Sprintf("val-%04d", i)),
		})
	}
	if err := s.PutBatch(pairs); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	if keyCount(s) != 1000 {
		t.Fatalf("Len = %d, want 1000", keyCount(s))
	}
	commits := s.Stats().Commits
	var mixed []KV
	for i := 0; i < 1000; i += 2 {
		mixed = append(mixed, KV{Key: []byte(fmt.Sprintf("bulk-%04d", i)), Delete: true})
	}
	mixed = append(mixed,
		KV{Key: []byte("never-existed"), Delete: true}, // absent keys are fine
		KV{Key: []byte("bulk-0001"), Value: []byte("rewritten")},
		KV{Key: []byte("bulk-0003"), Delete: true}, // in order: the delete wins
		KV{Key: []byte("bulk-0003"), Value: []byte("back")},
		KV{Key: []byte("bulk-0005"), Value: []byte("gone")},
		KV{Key: []byte("bulk-0005"), Delete: true},
	)
	if err := s.PutBatch(mixed); err != nil {
		t.Fatalf("mixed PutBatch: %v", err)
	}
	if got := s.Stats().Commits - commits; got != 1 {
		t.Fatalf("a mixed batch took %d commits, want 1", got)
	}
	if keyCount(s) != 499 {
		t.Fatalf("Len after deletes = %d, want 499", keyCount(s))
	}
	for i := 0; i < 1000; i++ {
		v, ok, err := s.Get([]byte(fmt.Sprintf("bulk-%04d", i)))
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("val-%04d", i)
		switch i {
		case 1:
			want = "rewritten"
		case 3:
			want = "back"
		}
		if ok != (i%2 == 1 && i != 5) || (ok && string(v) != want) {
			t.Fatalf("key %d = %q present=%v after the mixed batch", i, v, ok)
		}
	}
}

// BenchmarkGetDuringBulkWrite measures a reader's Get latency while
// 8192-pair batches commit back to back: the worst case is one batch's
// hold of the write lock, which is what a version-store fold round costs
// concurrent readers.
func BenchmarkGetDuringBulkWrite(b *testing.B) {
	const batch = 8192
	s := openTemp(b, Options{Sync: SyncGroup})
	s.Put([]byte("probe"), []byte("v"))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var rounds atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; ; r++ {
			select {
			case <-stop:
				return
			default:
			}
			pairs := make([]KV, batch)
			for i := range pairs {
				pairs[i] = KV{
					Key:   []byte(fmt.Sprintf("w-%d-%05d", r, i%2048)),
					Value: []byte("some-bulk-value-payload"),
				}
			}
			s.PutBatch(pairs)
			rounds.Add(1)
		}
	}()
	// Let the writer get going so reads genuinely contend.
	time.Sleep(5 * time.Millisecond)
	var worst time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, ok, err := s.Get([]byte("probe")); !ok || err != nil {
			b.Fatalf("probe read failed: %v %v", ok, err)
		}
		if d := time.Since(t0); d > worst {
			worst = d
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	b.ReportMetric(float64(worst.Microseconds()), "worst-us")
	b.ReportMetric(float64(rounds.Load()), "write-rounds")
}
