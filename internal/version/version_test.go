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

	b := s.BeginSized(0)
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
	b := s.BeginSized(0)
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
	b := s.BeginSized(0)
	b.Put("k", []byte("v"))
	if err := b.Publish(); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(); err == nil {
		t.Fatal("double publish accepted")
	}
}

func TestSnapshotRepeatableReads(t *testing.T) {
	s := NewStore()
	for i := 0; i < 5; i++ {
		b := s.BeginSized(0)
		b.Put("k", []byte(fmt.Sprintf("v%d", i)))
		b.Publish()
	}
	snap := s.Acquire()
	defer snap.Release()
	first, _ := snap.Get("k")
	for i := 5; i < 10; i++ {
		b := s.BeginSized(0)
		b.Put("k", []byte(fmt.Sprintf("v%d", i)))
		b.Publish()
	}
	second, _ := snap.Get("k")
	if string(first) != string(second) {
		t.Fatalf("snapshot read changed: %q then %q", first, second)
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
	b := s.BeginSized(0)
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
		b := s.BeginSized(0)
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

// TestBatchMisusePanics: staging into a published batch used to be a
// silent no-op whose writes never landed. It is now a loud diagnostic.
func TestBatchMisusePanics(t *testing.T) {
	s := NewStore()
	b := s.BeginSized(0)
	b.Put("k", []byte("v"))
	if err := b.Publish(); err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "version: Put on already-published batch", func() { b.Put("k2", []byte("v2")) }) //memexvet:ignore epochbatch deliberately exercises the misuse diagnostic

	// The silent-no-op hole: writes staged after Publish must never land.
	snap := s.Acquire()
	defer snap.Release()
	if _, ok := snap.Get("k2"); ok {
		t.Fatal("write staged after Publish landed")
	}
}

// TestSnapshotUseAfterRelease: a released snapshot used to silently read
// whatever state GC had left; now it fails loudly.
func TestSnapshotUseAfterRelease(t *testing.T) {
	s := NewStore()
	b := s.BeginSized(0)
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
	mustPanic(t, "version: Range on released snapshot", func() { snap.Range(func(string, []byte) bool { return true }) })
}

// TestStoreStats sanity-checks the introspection surface.
func TestStoreStats(t *testing.T) {
	s := NewStore()
	for i := 0; i < 3; i++ {
		b := s.BeginSized(0)
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
		b := s.BeginSized(0)
		b.Put("k", []byte{byte(i)})
		b.Publish()
	}
	st = s.StoreStats()
	if st.Layers != 1 || st.Entries != 1 || st.Pinned != 0 || st.GCReclaimed != tierFanout-1 {
		t.Fatalf("StoreStats after the carry = %+v", st)
	}
}

// TestDroppedBatchTakesNoEpoch: a batch takes its epoch when it publishes.
// One staged and dropped, or published empty, takes none and leaves no
// gap, so the next publish lands at watermark+1, and after a reopen the
// watermark is the recovered one plus the number of non-empty publishes.
func TestDroppedBatchTakesNoEpoch(t *testing.T) {
	kv := openKV(t, t.TempDir())
	defer kv.Close()
	s := openCold(t, kv, Options{})
	publishKV(t, s, map[string]string{"a": "1"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openCold(t, kv, Options{})
	recovered := s.Watermark()
	if recovered != 1 {
		t.Fatalf("recovered watermark = %d, want 1", recovered)
	}

	dropped := s.BeginSized(0)
	dropped.Put("dropped", []byte("x"))
	empty := s.BeginSized(0)
	if err := empty.Publish(); err != nil {
		t.Fatal(err)
	}
	if s.Watermark() != recovered {
		t.Fatalf("an empty publish moved the watermark to %d", s.Watermark())
	}
	b := s.BeginSized(0)
	b.Put("b", []byte("2"))
	if s.Watermark() != recovered {
		t.Fatalf("staging a batch moved the watermark to %d", s.Watermark())
	}
	if err := b.Publish(); err != nil {
		t.Fatal(err)
	}
	if s.Watermark() != recovered+1 {
		t.Fatalf("after dropping a batch the next publish took watermark %d; want %d", s.Watermark(), recovered+1)
	}
	const more = 20
	for i := 0; i < more; i++ {
		publishKV(t, s, map[string]string{fmt.Sprintf("k%02d", i): "v"})
		s.BeginSized(0).Put("dropped", []byte("again"))
	}
	if got, want := s.Watermark(), recovered+1+more; got != want {
		t.Fatalf("watermark = %d after %d non-empty publishes over %d, want %d", got, 1+more, recovered, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openCold(t, kv, Options{})
	if got, want := s.Watermark(), recovered+1+more; got != want {
		t.Fatalf("reopened watermark = %d, want %d", got, want)
	}
	sn := s.Acquire()
	defer sn.Release()
	if _, ok := sn.Get("dropped"); ok {
		t.Fatal("a dropped batch's write is visible")
	}
	if v, ok := sn.Get("b"); !ok || string(v) != "2" {
		t.Fatalf("Get(b) = %q, %v after reopen", v, ok)
	}
}

func BenchmarkPublish(b *testing.B) {
	s := NewStore()
	for i := 0; i < b.N; i++ {
		batch := s.BeginSized(0)
		batch.Put("k1", []byte("v"))
		batch.Put("k2", []byte("v"))
		batch.Publish()
	}
}

func BenchmarkSnapshotGet(b *testing.B) {
	s := NewStore()
	batch := s.BeginSized(0)
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
