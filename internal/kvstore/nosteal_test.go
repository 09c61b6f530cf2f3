package kvstore

import (
	"fmt"
	"math/rand"
	"testing"
)

// poolState reports what the buffer pool holds: pages, how many of them
// are dirty, and whether it has overflowed since the last checkpoint.
func poolState(s *Store) (pages, dirty int, full bool) {
	s.pager.mu.Lock()
	defer s.pager.mu.Unlock()
	for _, e := range s.pager.cache {
		if e.p.dirty {
			dirty++
		}
	}
	return len(s.pager.cache), dirty, s.pager.full
}

// TestCrashAfterEvictionKeepsEveryKey: 4 000 puts of 100-byte values in
// random key order, a checkpoint after the first 2 000, then a crash, with
// pools smaller than the ≈140-page tree. The log replays over the last
// checkpoint's image, so a dirty page the pool evicted into data.db before
// the crash would mix a later image into it and lose keys on replay.
func TestCrashAfterEvictionKeepsEveryKey(t *testing.T) {
	for _, pool := range []int{8, 128} {
		t.Run(fmt.Sprintf("pool=%d", pool), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Sync: SyncGroup, CacheSize: pool}
			s, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			const n = 4000
			for i, k := range rand.New(rand.NewSource(1)).Perm(n) {
				if i == n/2 {
					if err := s.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				putN(t, s, k, 100)
			}
			st := s.Stats()
			if st.Evictions == 0 || st.Pages <= pool {
				t.Fatalf("%d pages, %d evictions: the tree must outgrow the %d-page pool", st.Pages, st.Evictions, pool)
			}
			crash(s)

			s2, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			missing := 0
			for k := 0; k < n; k++ {
				if _, ok, err := s2.Get(keyN(k)); err != nil || !ok {
					missing++
				}
			}
			if missing > 0 || keyCount(s2) != n {
				t.Fatalf("after the crash %d of %d keys are missing, Len %d", missing, n, keyCount(s2))
			}
			checkStore(t, s2)
		})
	}
}

// loadCheckpointed fills an 8-page pool's store with a tree of about 45
// leaves (1 500 keys of 100 bytes, ascending) and checkpoints it, so the
// pool starts clean.
func loadCheckpointed(t *testing.T) *Store {
	t.Helper()
	s := openTemp(t, Options{Sync: SyncGroup, CacheSize: 8})
	for i := 0; i < 1500; i++ {
		putN(t, s, i, 100)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, dirty, full := poolState(s); dirty != 0 || full {
		t.Fatalf("after a checkpoint the pool holds %d dirty pages, full %v", dirty, full)
	}
	return s
}

// TestCommitThatOverflowsThePoolCheckpointsOnce: a batch that dirties more
// leaves than the pool holds overflows it (no dirty page is written to make
// room) and is followed by exactly one checkpoint, which leaves the pool
// clean and the log empty. Its log bytes are far below the pool's.
func TestCommitThatOverflowsThePoolCheckpointsOnce(t *testing.T) {
	s := loadCheckpointed(t)
	var batch []KV
	for i := 0; i < 1500; i += 60 { // one key in each of 25 leaves
		batch = append(batch, KV{Key: keyN(i), Value: make([]byte, 100)})
	}
	before := s.Stats()
	if err := s.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if got := after.Checkpoints - before.Checkpoints; got != 1 {
		t.Fatalf("the overflowing batch took %d checkpoints, want 1", got)
	}
	if logged := after.WALBytes - before.WALBytes; logged >= 8*PageSize {
		t.Fatalf("the batch logged %d bytes: the log trigger, not the overflow, fired", logged)
	}
	if _, dirty, full := poolState(s); dirty != 0 || full || s.wal.size != 0 {
		t.Fatalf("after the checkpoint: %d dirty pages, full %v, %d log bytes", dirty, full, s.wal.size)
	}
}

// TestLogPastThePoolsBytesCheckpointsOnce: puts that rewrite one key never
// overflow the pool, and the put that takes the log past CacheSize×PageSize
// bytes — and only that one — is followed by a checkpoint.
func TestLogPastThePoolsBytesCheckpointsOnce(t *testing.T) {
	s := openTemp(t, Options{Sync: SyncGroup, CacheSize: 8})
	start := s.Stats().Checkpoints
	var logged uint64
	for i := 0; i < 40; i++ {
		before := s.Stats()
		if err := s.Put([]byte("k"), make([]byte, 900)); err != nil {
			t.Fatal(err)
		}
		after := s.Stats()
		logged += after.WALBytes - before.WALBytes
		want := uint64(0)
		if logged >= 8*PageSize {
			want = 1
		}
		if took := after.Checkpoints - before.Checkpoints; took != want {
			t.Fatalf("put %d: %d log bytes since the last checkpoint, %d checkpoints taken, want %d", i, logged, took, want)
		}
		if want == 1 {
			logged = 0
		}
		if _, _, full := poolState(s); full {
			t.Fatalf("put %d overflowed the pool", i)
		}
	}
	if got := s.Stats().Checkpoints - start; got != 1 {
		t.Fatalf("40 puts of 900 bytes took %d checkpoints, want 1", got)
	}
}

// TestReadsThatOverflowThePoolNeverCheckpoint: with every page in the pool
// dirty, reads of pages outside it overflow the pool rather than write one
// back, and do not checkpoint; the next commit does, once.
func TestReadsThatOverflowThePoolNeverCheckpoint(t *testing.T) {
	s := loadCheckpointed(t)
	start := s.Stats().Checkpoints
	// A 1 000-byte cell does not fit a 0.8-full leaf: it rebalances into a
	// sibling, which dirties the root's separator too.
	if err := s.Put(append(keyN(750), 0), make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	// Rewrite one key in other leaves until every cached page is dirty.
	for i := 0; ; i += 60 {
		if pages, dirty, _ := poolState(s); pages == dirty {
			break
		}
		if i >= 1500 {
			t.Fatal("rewrites never left every cached page dirty")
		}
		putN(t, s, i, 100)
	}
	if got := s.Stats().Checkpoints - start; got != 0 {
		t.Fatalf("writes that fit the pool took %d checkpoints", got)
	}
	for i := 0; i < 1500; i++ {
		if _, ok, err := s.Get(keyN(i)); err != nil || !ok {
			t.Fatalf("Get %d: ok=%v err=%v", i, ok, err)
		}
	}
	if _, _, full := poolState(s); !full {
		t.Fatal("reads over a pool of dirty pages did not overflow it")
	}
	if got := s.Stats().Checkpoints - start; got != 0 {
		t.Fatalf("reads took %d checkpoints, want none", got)
	}
	putN(t, s, 0, 100)
	if got := s.Stats().Checkpoints - start; got != 1 {
		t.Fatalf("the commit after the reads took %d checkpoints, want 1", got)
	}
	if _, dirty, full := poolState(s); dirty != 0 || full {
		t.Fatalf("after the checkpoint: %d dirty pages, full %v", dirty, full)
	}
}
