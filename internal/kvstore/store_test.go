package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func openTemp(t testing.TB, opts Options) *Store {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openTemp(t, Options{Sync: SyncNever})
	if err := s.Put([]byte("hello"), []byte("world")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	v, ok, err := s.Get([]byte("hello"))
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if string(v) != "world" {
		t.Fatalf("got %q, want %q", v, "world")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestGetMissing(t *testing.T) {
	s := openTemp(t, Options{Sync: SyncNever})
	_, ok, err := s.Get([]byte("absent"))
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if ok {
		t.Fatal("found a key that was never inserted")
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	s := openTemp(t, Options{Sync: SyncNever})
	if err := s.Put(nil, []byte("v")); err == nil {
		t.Fatal("Put with empty key should fail")
	}
}

func TestOverwrite(t *testing.T) {
	s := openTemp(t, Options{Sync: SyncNever})
	key := []byte("k")
	for i := 0; i < 10; i++ {
		val := []byte(fmt.Sprintf("value-%d", i))
		if err := s.Put(key, val); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	v, ok, _ := s.Get(key)
	if !ok || string(v) != "value-9" {
		t.Fatalf("got %q ok=%v, want value-9", v, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after overwrites, want 1", s.Len())
	}
}

func TestDelete(t *testing.T) {
	s := openTemp(t, Options{Sync: SyncNever})
	s.Put([]byte("a"), []byte("1"))
	s.Put([]byte("b"), []byte("2"))
	if err := s.Delete([]byte("a")); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, ok, _ := s.Get([]byte("a")); ok {
		t.Fatal("deleted key still present")
	}
	if _, ok, _ := s.Get([]byte("b")); !ok {
		t.Fatal("unrelated key lost after delete")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	// Deleting a missing key is not an error.
	if err := s.Delete([]byte("zzz")); err != nil {
		t.Fatalf("Delete missing: %v", err)
	}
}

func TestValueTooLarge(t *testing.T) {
	s := openTemp(t, Options{Sync: SyncNever})
	big := make([]byte, PageSize)
	err := s.Put([]byte("k"), big)
	if err == nil || !ErrTooLarge(err) {
		t.Fatalf("want errValueTooLarge, got %v", err)
	}
}

func TestManyKeysSplitAndOrder(t *testing.T) {
	s := openTemp(t, Options{Sync: SyncNever, CacheSize: 64})
	const n = 5000
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(n)
	for _, i := range perm {
		k := []byte(fmt.Sprintf("key-%06d", i))
		v := []byte(fmt.Sprintf("val-%06d", i))
		if err := s.Put(k, v); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	// All retrievable.
	for i := 0; i < n; i += 97 {
		k := []byte(fmt.Sprintf("key-%06d", i))
		v, ok, err := s.Get(k)
		if err != nil || !ok {
			t.Fatalf("Get %s: ok=%v err=%v", k, ok, err)
		}
		want := fmt.Sprintf("val-%06d", i)
		if string(v) != want {
			t.Fatalf("Get %s = %q, want %q", k, v, want)
		}
	}
	// Scan returns strictly increasing keys, all n of them.
	var prev []byte
	count := 0
	err := s.Scan(nil, nil, func(k, v []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("scan out of order: %q then %q", prev, k)
		}
		prev = k
		count++
		return true
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if count != n {
		t.Fatalf("scan visited %d keys, want %d", count, n)
	}
}

func TestScanRange(t *testing.T) {
	s := openTemp(t, Options{Sync: SyncNever})
	for i := 0; i < 100; i++ {
		s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte{byte(i)})
	}
	var got []string
	s.Scan([]byte("k010"), []byte("k020"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 10 || got[0] != "k010" || got[9] != "k019" {
		t.Fatalf("range scan got %v", got)
	}
}

func TestScanEarlyStop(t *testing.T) {
	s := openTemp(t, Options{Sync: SyncNever})
	for i := 0; i < 50; i++ {
		s.Put([]byte(fmt.Sprintf("k%03d", i)), nil)
	}
	count := 0
	s.Scan(nil, nil, func(k, v []byte) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d, want 5", count)
	}
}

func TestScanPrefix(t *testing.T) {
	s := openTemp(t, Options{Sync: SyncNever})
	s.Put([]byte("a/1"), nil)
	s.Put([]byte("a/2"), nil)
	s.Put([]byte("b/1"), nil)
	var got []string
	s.ScanPrefix([]byte("a/"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 2 || got[0] != "a/1" || got[1] != "a/2" {
		t.Fatalf("prefix scan got %v", got)
	}
}

func TestPrefixEnd(t *testing.T) {
	cases := []struct {
		in   []byte
		want []byte
	}{
		{[]byte("abc"), []byte("abd")},
		{[]byte{0x01, 0xff}, []byte{0x02}},
		{[]byte{0xff, 0xff}, nil},
	}
	for _, c := range cases {
		got := prefixEnd(c.in)
		if !bytes.Equal(got, c.want) {
			t.Errorf("prefixEnd(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 500; i++ {
		s.Put([]byte(fmt.Sprintf("key%04d", i)), []byte(fmt.Sprintf("val%04d", i)))
	}
	s.Delete([]byte("key0100"))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 499 {
		t.Fatalf("Len after reopen = %d, want 499", s2.Len())
	}
	v, ok, _ := s2.Get([]byte("key0042"))
	if !ok || string(v) != "val0042" {
		t.Fatalf("key0042 after reopen: %q ok=%v", v, ok)
	}
	if _, ok, _ := s2.Get([]byte("key0100")); ok {
		t.Fatal("deleted key resurrected after reopen")
	}
}

// TestCrashRecoveryFromWAL simulates a crash: write with SyncAlways, then
// reopen without calling Close (no checkpoint). The WAL alone must rebuild
// the committed state.
func TestCrashRecoveryFromWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: SyncAlways, CheckpointEvery: 1 << 30})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 200; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	s.Delete([]byte("k007"))
	// Simulate crash: flush nothing, just drop the handles.
	s.wal.w.Flush()
	s.wal.f.Close()
	s.pager.f.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 199 {
		t.Fatalf("recovered Len = %d, want 199", s2.Len())
	}
	v, ok, _ := s2.Get([]byte("k150"))
	if !ok || string(v) != "v150" {
		t.Fatalf("recovered k150 = %q ok=%v", v, ok)
	}
	if _, ok, _ := s2.Get([]byte("k007")); ok {
		t.Fatal("recovered deleted key")
	}
}

// TestTornWALTail appends garbage to the WAL and verifies recovery stops at
// the torn record without failing.
func TestTornWALTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{Sync: SyncAlways, CheckpointEvery: 1 << 30})
	s.Put([]byte("good"), []byte("1"))
	s.wal.w.Flush()
	s.wal.f.Close()
	s.pager.f.Close()

	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x09, 0x17, 0x33}) // torn partial record
	f.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer s2.Close()
	if _, ok, _ := s2.Get([]byte("good")); !ok {
		t.Fatal("committed key lost")
	}
}

func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{Sync: SyncAlways, CheckpointEvery: 1 << 30})
	for i := 0; i < 100; i++ {
		s.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	fi, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Fatalf("wal size after checkpoint = %d, want 0", fi.Size())
	}
	v, ok, _ := s.Get([]byte("k42"))
	if !ok || string(v) != "v" {
		t.Fatal("data lost after checkpoint")
	}
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 100 {
		t.Fatalf("Len = %d, want 100", s2.Len())
	}
}

func TestBatchPut(t *testing.T) {
	s := openTemp(t, Options{Sync: SyncGroup})
	batch := make([]KV, 100)
	for i := range batch {
		batch[i] = KV{Key: []byte(fmt.Sprintf("b%03d", i)), Value: []byte("x")}
	}
	if err := s.PutBatch(batch); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100", s.Len())
	}
}

func TestConcurrentReadersOneWriter(t *testing.T) {
	s := openTemp(t, Options{Sync: SyncNever})
	for i := 0; i < 1000; i++ {
		s.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%04d", i)))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(1000)
				k := []byte(fmt.Sprintf("k%04d", i))
				v, ok, err := s.Get(k)
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if ok && !bytes.HasPrefix(v, []byte("v")) {
					t.Errorf("corrupt value %q for %q", v, k)
					return
				}
			}
		}(int64(r))
	}
	for i := 1000; i < 2000; i++ {
		s.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%04d", i)))
	}
	close(stop)
	wg.Wait()
}

// TestPropertyMatchesMapModel drives random operations against the store and
// an in-memory map, then verifies full agreement including scan order.
func TestPropertyMatchesMapModel(t *testing.T) {
	s := openTemp(t, Options{Sync: SyncNever, CacheSize: 32})
	model := map[string]string{}
	rng := rand.New(rand.NewSource(42))
	for op := 0; op < 20000; op++ {
		k := fmt.Sprintf("key-%03d", rng.Intn(500))
		switch rng.Intn(3) {
		case 0, 1:
			v := fmt.Sprintf("val-%d", rng.Int63())
			if err := s.Put([]byte(k), []byte(v)); err != nil {
				t.Fatalf("Put: %v", err)
			}
			model[k] = v
		case 2:
			if err := s.Delete([]byte(k)); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			delete(model, k)
		}
	}
	if s.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", s.Len(), len(model))
	}
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	i := 0
	err := s.Scan(nil, nil, func(k, v []byte) bool {
		if i >= len(keys) {
			t.Fatalf("scan produced extra key %q", k)
		}
		if string(k) != keys[i] {
			t.Fatalf("scan key %d = %q, want %q", i, k, keys[i])
		}
		if string(v) != model[keys[i]] {
			t.Fatalf("scan value for %q = %q, want %q", k, v, model[keys[i]])
		}
		i++
		return true
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if i != len(keys) {
		t.Fatalf("scan stopped at %d of %d", i, len(keys))
	}
}

// TestQuickPutGet is a testing/quick property: any put is immediately gettable.
func TestQuickPutGet(t *testing.T) {
	s := openTemp(t, Options{Sync: SyncNever})
	f := func(k [8]byte, v []byte) bool {
		key := append([]byte("q/"), k[:]...)
		if len(v) > 1024 {
			v = v[:1024]
		}
		if err := s.Put(key, v); err != nil {
			return false
		}
		got, ok, err := s.Get(key)
		return err == nil && ok && bytes.Equal(got, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeValuesNearLimit(t *testing.T) {
	s := openTemp(t, Options{Sync: SyncNever})
	v := make([]byte, maxPayload-10)
	for i := range v {
		v[i] = byte(i)
	}
	if err := s.Put([]byte("big"), v); err != nil {
		t.Fatalf("Put near-limit value: %v", err)
	}
	got, ok, _ := s.Get([]byte("big"))
	if !ok || !bytes.Equal(got, v) {
		t.Fatal("large value corrupted")
	}
}

func TestStatsCounters(t *testing.T) {
	s := openTemp(t, Options{Sync: SyncNever, CacheSize: 16})
	for i := 0; i < 8000; i++ {
		s.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("v"))
	}
	st := s.Stats()
	if st.Pages < 2 {
		t.Fatalf("Pages = %d, want >= 2", st.Pages)
	}
	if st.Hits == 0 {
		t.Fatal("expected cache hits")
	}
	if st.Evictions == 0 {
		t.Fatal("expected evictions with tiny cache")
	}
	if st.Commits != 8000 {
		t.Fatalf("Commits = %d after 8000 puts, want 8000", st.Commits)
	}
}

// TestWriteCountersCountCommitsAndLogBytes: a batch is one commit however
// many pairs it holds, a delete is one more, and WALBytes is exactly what
// reached the log file — and keeps counting across the checkpoint that
// truncates it.
func TestWriteCountersCountCommitsAndLogBytes(t *testing.T) {
	s := openTemp(t, Options{Sync: SyncGroup})
	pairs := make([]KV, 10)
	for i := range pairs {
		pairs[i] = KV{Key: []byte(fmt.Sprintf("k%02d", i)), Value: []byte("value")}
	}
	if err := s.PutBatch(pairs); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete([]byte("k03")); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Commits != 2 {
		t.Fatalf("Commits = %d after one batch and one delete, want 2", st.Commits)
	}
	fi, err := os.Stat(filepath.Join(s.dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if st.WALBytes != uint64(fi.Size()) {
		t.Fatalf("WALBytes = %d, wal.log holds %d", st.WALBytes, fi.Size())
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("after"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if after := s.Stats(); after.Commits != 3 || after.WALBytes <= st.WALBytes {
		t.Fatalf("after a checkpoint and a put: %+v, want 3 commits and more than %d bytes", after, st.WALBytes)
	}
}

func BenchmarkPut(b *testing.B) {
	dir := b.TempDir()
	s, _ := Open(dir, Options{Sync: SyncNever})
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put([]byte(fmt.Sprintf("bench-%09d", i)), []byte("payload-payload"))
	}
}

func BenchmarkGet(b *testing.B) {
	dir := b.TempDir()
	s, _ := Open(dir, Options{Sync: SyncNever})
	defer s.Close()
	const n = 100000
	for i := 0; i < n; i++ {
		s.Put([]byte(fmt.Sprintf("bench-%09d", i)), []byte("payload"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get([]byte(fmt.Sprintf("bench-%09d", i%n)))
	}
}
