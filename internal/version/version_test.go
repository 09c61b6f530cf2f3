package version

import (
	"fmt"
	"sync"
	"testing"
)

func TestPublishVisibility(t *testing.T) {
	s := NewStore()
	snap0 := s.Acquire()
	defer snap0.Release()

	b := s.Begin()
	b.Put("k", []byte("v1"))
	if err := b.Publish(); err != nil {
		t.Fatalf("Publish: %v", err)
	}

	// Old snapshot must not see the new write.
	if _, ok := snap0.Get("k"); ok {
		t.Fatal("stale snapshot observed a later publish")
	}
	// New snapshot must.
	snap1 := s.Acquire()
	defer snap1.Release()
	v, ok := snap1.Get("k")
	if !ok || string(v) != "v1" {
		t.Fatalf("new snapshot: %q ok=%v", v, ok)
	}
}

func TestUnpublishedInvisible(t *testing.T) {
	s := NewStore()
	b := s.Begin()
	b.Put("k", []byte("v"))
	snap := s.Acquire()
	defer snap.Release()
	if _, ok := snap.Get("k"); ok {
		t.Fatal("snapshot observed unpublished batch")
	}
	b.Publish()
	if _, ok := snap.Get("k"); ok {
		t.Fatal("pinned snapshot observed publish after acquire")
	}
}

func TestDoublePublishFails(t *testing.T) {
	s := NewStore()
	b := s.Begin()
	b.Put("k", []byte("v"))
	if err := b.Publish(); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(); err == nil {
		t.Fatal("double publish accepted")
	}
}

func TestTombstone(t *testing.T) {
	s := NewStore()
	b := s.Begin()
	b.Put("k", []byte("v"))
	b.Publish()

	b2 := s.Begin()
	b2.Delete("k")
	b2.Publish()

	snap := s.Acquire()
	defer snap.Release()
	if _, ok := snap.Get("k"); ok {
		t.Fatal("deleted key visible")
	}
	if keys := snap.Keys(); len(keys) != 0 {
		t.Fatalf("Keys = %v, want empty", keys)
	}
}

func TestSnapshotRepeatableReads(t *testing.T) {
	s := NewStore()
	for i := 0; i < 5; i++ {
		b := s.Begin()
		b.Put("k", []byte(fmt.Sprintf("v%d", i)))
		b.Publish()
	}
	snap := s.Acquire()
	defer snap.Release()
	first, _ := snap.Get("k")
	for i := 5; i < 10; i++ {
		b := s.Begin()
		b.Put("k", []byte(fmt.Sprintf("v%d", i)))
		b.Publish()
	}
	second, _ := snap.Get("k")
	if string(first) != string(second) {
		t.Fatalf("snapshot read changed: %q then %q", first, second)
	}
}

func TestAbort(t *testing.T) {
	s := NewStore()
	b := s.Begin()
	b.Put("k", []byte("v"))
	b.Abort()
	snap := s.Acquire()
	defer snap.Release()
	if _, ok := snap.Get("k"); ok {
		t.Fatal("aborted batch visible")
	}
}

func TestKeysSorted(t *testing.T) {
	s := NewStore()
	b := s.Begin()
	b.Put("zebra", []byte("1"))
	b.Put("apple", []byte("2"))
	b.Put("mango", []byte("3"))
	b.Publish()
	snap := s.Acquire()
	defer snap.Release()
	keys := snap.Keys()
	want := []string{"apple", "mango", "zebra"}
	if len(keys) != 3 {
		t.Fatalf("Keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", keys, want)
		}
	}
}

// TestConcurrentProducerConsumers is the E9 consistency check in miniature:
// one producer publishes batches where all values in batch i equal i; every
// consumer snapshot must read a consistent batch (all keys agree).
func TestConcurrentProducerConsumers(t *testing.T) {
	s := NewStore()
	const keys = 8
	const rounds = 200

	// Seed epoch 0 state.
	b := s.Begin()
	for k := 0; k < keys; k++ {
		b.Put(fmt.Sprintf("key%d", k), []byte("0"))
	}
	b.Publish()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 4)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := s.Acquire()
				var first string
				consistent := true
				for k := 0; k < keys; k++ {
					v, ok := snap.Get(fmt.Sprintf("key%d", k))
					if !ok {
						consistent = false
						break
					}
					if k == 0 {
						first = string(v)
					} else if string(v) != first {
						consistent = false
						break
					}
				}
				snap.Release()
				if !consistent {
					select {
					case errCh <- fmt.Errorf("inconsistent snapshot observed"):
					default:
					}
					return
				}
			}
		}()
	}
	for r := 1; r <= rounds; r++ {
		b := s.Begin()
		val := []byte(fmt.Sprintf("%d", r))
		for k := 0; k < keys; k++ {
			b.Put(fmt.Sprintf("key%d", k), val)
		}
		b.Publish()
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// TestOutOfOrderPublishWatermark is the regression test for the watermark
// contiguity hole: when a higher epoch publishes while a lower one is
// still unpublished, the watermark must NOT advance past the gap — the
// old implementation advanced it to the max epoch, so the late low-epoch
// publish inserted entries below an already-pinned snapshot epoch and
// mutated a live snapshot.
func TestOutOfOrderPublishWatermark(t *testing.T) {
	s := NewStore()
	b1 := s.Begin() // epoch 1, published last
	b2 := s.Begin() // epoch 2, published first
	b2.Put("k", []byte("v2"))
	if err := b2.Publish(); err != nil {
		t.Fatal(err)
	}
	if wm := s.Watermark(); wm != 0 {
		t.Fatalf("watermark %d advanced over unpublished epoch 1", wm)
	}

	// Snapshot acquired between the two out-of-order publishes.
	snap := s.Acquire()
	defer snap.Release()
	if _, ok := snap.Get("k"); ok {
		t.Fatal("snapshot below the gap observed epoch 2")
	}

	b1.Put("k", []byte("v1"))
	b1.Put("other", []byte("o"))
	if err := b1.Publish(); err != nil {
		t.Fatal(err)
	}
	if wm := s.Watermark(); wm != 2 {
		t.Fatalf("watermark %d after gap closed, want 2", wm)
	}
	// The pinned snapshot must stay immutable: the late publish must not
	// leak into it.
	if _, ok := snap.Get("k"); ok {
		t.Fatal("late low-epoch publish mutated a pinned snapshot")
	}
	if _, ok := snap.Get("other"); ok {
		t.Fatal("late low-epoch publish leaked a new key into a pinned snapshot")
	}
	if keys := snap.Keys(); len(keys) != 0 {
		t.Fatalf("pinned snapshot Keys = %v, want empty", keys)
	}
	// A fresh snapshot sees the newest value for k and the late key.
	snap2 := s.Acquire()
	defer snap2.Release()
	if v, ok := snap2.Get("k"); !ok || string(v) != "v2" {
		t.Fatalf("fresh snapshot Get(k) = %q ok=%v, want v2", v, ok)
	}
	if v, ok := snap2.Get("other"); !ok || string(v) != "o" {
		t.Fatalf("fresh snapshot Get(other) = %q ok=%v, want o", v, ok)
	}
}

// TestAbortUnblocksWatermark: an abandoned batch must not stall the
// watermark forever — Abort counts as completing its epoch.
func TestAbortUnblocksWatermark(t *testing.T) {
	s := NewStore()
	b1 := s.Begin()
	b2 := s.Begin()
	b2.Put("k", []byte("v2"))
	b2.Publish()
	if wm := s.Watermark(); wm != 0 {
		t.Fatalf("watermark %d, want 0 while epoch 1 open", wm)
	}
	b1.Abort()
	if wm := s.Watermark(); wm != 2 {
		t.Fatalf("watermark %d after abort closed the gap, want 2", wm)
	}
	snap := s.Acquire()
	defer snap.Release()
	if v, ok := snap.Get("k"); !ok || string(v) != "v2" {
		t.Fatalf("Get(k) = %q ok=%v after abort unblocked epoch 2", v, ok)
	}
}

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want %q", want)
		}
		if msg, ok := r.(string); !ok || msg != want {
			t.Fatalf("panic %v, want %q", r, want)
		}
	}()
	fn()
}

// TestBatchMisusePanics: staging into a finished batch used to be either
// a bare nil-map panic (after Abort) or a silent no-op whose writes never
// landed (after Publish). Both are now loud, consistent diagnostics.
func TestBatchMisusePanics(t *testing.T) {
	s := NewStore()
	b := s.Begin()
	b.Put("k", []byte("v"))
	if err := b.Publish(); err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "version: Put on already-published batch", func() { b.Put("k2", []byte("v2")) }) //memexvet:ignore epochbatch deliberately exercises the misuse diagnostic
	mustPanic(t, "version: Delete on already-published batch", func() { b.Delete("k") })          //memexvet:ignore epochbatch deliberately exercises the misuse diagnostic

	ab := s.Begin()
	ab.Abort()
	mustPanic(t, "version: Put on aborted batch", func() { ab.Put("k", []byte("v")) }) //memexvet:ignore epochbatch deliberately exercises the misuse diagnostic
	mustPanic(t, "version: Delete on aborted batch", func() { ab.Delete("k") })        //memexvet:ignore epochbatch deliberately exercises the misuse diagnostic
	if err := ab.Publish(); err == nil {
		t.Fatal("Publish after Abort accepted")
	}

	// The silent-no-op hole: writes staged after Publish must never land.
	snap := s.Acquire()
	defer snap.Release()
	if _, ok := snap.Get("k2"); ok {
		t.Fatal("write staged after Publish landed")
	}
}

// TestAbortAfterPublishIsNoop supports the `defer b.Abort()` cleanup
// pattern: Abort on a published batch must not disturb it.
func TestAbortAfterPublishIsNoop(t *testing.T) {
	s := NewStore()
	b := s.Begin()
	b.Put("k", []byte("v"))
	if err := b.Publish(); err != nil {
		t.Fatal(err)
	}
	b.Abort()
	snap := s.Acquire()
	defer snap.Release()
	if _, ok := snap.Get("k"); !ok {
		t.Fatal("Abort after Publish dropped the published batch")
	}
}

// TestSnapshotUseAfterRelease: a released snapshot used to silently read
// whatever state GC had left; now it fails loudly.
func TestSnapshotUseAfterRelease(t *testing.T) {
	s := NewStore()
	b := s.Begin()
	b.Put("k", []byte("v"))
	b.Publish()
	snap := s.Acquire()
	epoch := snap.Epoch()
	snap.Release()
	snap.Release() // idempotent
	if snap.Epoch() != epoch {
		t.Fatal("Epoch changed after Release")
	}
	mustPanic(t, "version: Get on released snapshot", func() { snap.Get("k") })
	mustPanic(t, "version: Keys on released snapshot", func() { snap.Keys() })
}

// TestConcurrentOutOfOrderPublishersWithGC exercises the full producer
// surface under the race detector: several concurrently-publishing
// batches (which acquire epochs in order but publish out of order),
// consumers verifying per-batch atomicity, and the store's reclamation —
// tier merges at every publish, folds to disk — running throughout.
func TestConcurrentOutOfOrderPublishersWithGC(t *testing.T) {
	kv := openKV(t, t.TempDir())
	defer kv.Close()
	s := openCold(t, kv, Options{})
	const keys = 4
	const rounds = 100
	seed := s.Begin()
	for k := 0; k < keys; k++ {
		seed.Put(fmt.Sprintf("key%d", k), []byte("seed"))
	}
	seed.Publish()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 8)
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := s.Acquire()
				var first string
				for k := 0; k < keys; k++ {
					v, ok := snap.Get(fmt.Sprintf("key%d", k))
					if !ok {
						select {
						case errCh <- fmt.Errorf("missing key%d at epoch %d", k, snap.Epoch()):
						default:
						}
						break
					}
					if k == 0 {
						first = string(v)
					} else if string(v) != first {
						select {
						case errCh <- fmt.Errorf("torn snapshot at epoch %d: %q vs %q", snap.Epoch(), first, v):
						default:
						}
						break
					}
				}
				snap.Release()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := s.Fold(); err != nil {
				select {
				case errCh <- err:
				default:
				}
			}
		}
	}()
	// Publish pairs out of order: the higher epoch goes first.
	for r := 0; r < rounds; r++ {
		lo := s.Begin()
		hi := s.Begin()
		val := []byte(fmt.Sprintf("r%d-hi", r))
		for k := 0; k < keys; k++ {
			hi.Put(fmt.Sprintf("key%d", k), val)
		}
		loVal := []byte(fmt.Sprintf("r%d-lo", r))
		for k := 0; k < keys; k++ {
			lo.Put(fmt.Sprintf("key%d", k), loVal)
		}
		if err := hi.Publish(); err != nil {
			t.Fatal(err)
		}
		if err := lo.Publish(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	// After all gaps close, the watermark covers every epoch and a fresh
	// snapshot sees the final hi value (the higher epoch of the last pair).
	if wm := s.Watermark(); wm != uint64(1+2*rounds) {
		t.Fatalf("watermark %d, want %d", wm, 1+2*rounds)
	}
	snap := s.Acquire()
	defer snap.Release()
	want := fmt.Sprintf("r%d-hi", rounds-1)
	if v, ok := snap.Get("key0"); !ok || string(v) != want {
		t.Fatalf("final Get = %q ok=%v, want %q", v, ok, want)
	}
}

// TestStoreStats sanity-checks the introspection surface.
func TestStoreStats(t *testing.T) {
	s := NewStore()
	for i := 0; i < 3; i++ {
		b := s.Begin()
		b.Put("k", []byte{byte(i)})
		b.Publish()
	}
	snap := s.Acquire()
	st := s.StoreStats()
	if st.Watermark != 3 || st.Layers != 3 || st.Entries != 3 || st.Pinned != 1 {
		t.Fatalf("StoreStats = %+v", st)
	}
	snap.Release()
	// A store without a cold tier has nothing for GC to do; what reclaims
	// the superseded versions is the carry at the tierFanout-th publish.
	if n := s.GC(); n != 0 {
		t.Fatalf("GC on an in-memory store reclaimed %d, want 0", n)
	}
	for i := 3; i < tierFanout; i++ {
		b := s.Begin()
		b.Put("k", []byte{byte(i)})
		b.Publish()
	}
	st = s.StoreStats()
	if st.Layers != 1 || st.Entries != 1 || st.Pinned != 0 || st.GCReclaimed != tierFanout-1 {
		t.Fatalf("StoreStats after the carry = %+v", st)
	}
	if st.PendingEpochs != 0 {
		t.Fatalf("PendingEpochs = %d, want 0", st.PendingEpochs)
	}
}

func BenchmarkPublish(b *testing.B) {
	s := NewStore()
	for i := 0; i < b.N; i++ {
		batch := s.Begin()
		batch.Put("k1", []byte("v"))
		batch.Put("k2", []byte("v"))
		batch.Publish()
	}
}

func BenchmarkSnapshotGet(b *testing.B) {
	s := NewStore()
	batch := s.Begin()
	for i := 0; i < 1000; i++ {
		batch.Put(fmt.Sprintf("key%d", i), []byte("v"))
	}
	batch.Publish()
	snap := s.Acquire()
	defer snap.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.Get(fmt.Sprintf("key%d", i%1000))
	}
}
