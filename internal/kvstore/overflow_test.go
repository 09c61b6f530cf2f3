package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReplaceWithLargerValueOnFullPage is the regression test for the
// production deadlock found during integration: replacing a key with a
// larger value on a page with no free space must split, not overflow.
func TestReplaceWithLargerValueOnFullPage(t *testing.T) {
	s := openTemp(t, Options{Sync: SyncGroup})
	// Fill a leaf to the brim with medium cells.
	val := make([]byte, 120)
	for i := 0; i < 30; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%04d", i)), val); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	// Now grow every value to near the payload cap, forcing repeated
	// replace-splits.
	big := make([]byte, maxPayload-32)
	for i := range big {
		big[i] = byte(i)
	}
	for i := 0; i < 30; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%04d", i)), big); err != nil {
			t.Fatalf("grow %d: %v", i, err)
		}
	}
	if keyCount(s) != 30 {
		t.Fatalf("Len = %d, want 30", keyCount(s))
	}
	for i := 0; i < 30; i++ {
		v, ok, err := s.Get([]byte(fmt.Sprintf("key-%04d", i)))
		if err != nil || !ok || !bytes.Equal(v, big) {
			t.Fatalf("key %d corrupted after grow: ok=%v err=%v", i, ok, err)
		}
	}
}

// TestRandomSizeChurn hammers the tree with random-size puts, overwrites
// and deletes; any page-arithmetic slip panics, and the final state must
// match a map model.
func TestRandomSizeChurn(t *testing.T) {
	s := openTemp(t, Options{Sync: SyncGroup, CacheSize: 32})
	model := map[string][]byte{}
	rng := rand.New(rand.NewSource(99))
	for op := 0; op < 8000; op++ {
		k := fmt.Sprintf("churn-%03d", rng.Intn(300))
		switch rng.Intn(4) {
		case 0, 1, 2:
			n := rng.Intn(maxPayload - 20)
			v := make([]byte, n)
			rng.Read(v)
			if err := s.Put([]byte(k), v); err != nil {
				t.Fatalf("Put size %d: %v", n, err)
			}
			model[k] = v
		case 3:
			if err := s.PutBatch([]KV{{Key: []byte(k), Delete: true}}); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			delete(model, k)
		}
	}
	if keyCount(s) != len(model) {
		t.Fatalf("Len = %d, model %d", keyCount(s), len(model))
	}
	for k, want := range model {
		got, ok, err := s.Get([]byte(k))
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("key %s: ok=%v err=%v len=%d want %d", k, ok, err, len(got), len(want))
		}
	}
}

// TestLongKeysSplitInternalPages drives enough long keys to force internal
// page splits with large separators.
func TestLongKeysSplitInternalPages(t *testing.T) {
	s := openTemp(t, Options{Sync: SyncGroup, CacheSize: 64})
	longKey := func(i int) []byte {
		return []byte(fmt.Sprintf("%0500d", i)) // 500-byte keys
	}
	const n = 2000
	perm := rand.New(rand.NewSource(3)).Perm(n)
	for _, i := range perm {
		if err := s.Put(longKey(i), []byte("v")); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if keyCount(s) != n {
		t.Fatalf("Len = %d", keyCount(s))
	}
	// Order preserved.
	prev := -1
	s.Scan(nil, nil, func(k, v []byte) bool {
		var i int
		fmt.Sscanf(string(k), "%d", &i)
		if i <= prev {
			t.Fatalf("order violated: %d after %d", i, prev)
		}
		prev = i
		return true
	})
}

// TestPayloadCapEnforced verifies the documented cap.
func TestPayloadCapEnforced(t *testing.T) {
	s := openTemp(t, Options{Sync: SyncGroup})
	k := []byte("k")
	if err := s.Put(k, make([]byte, maxPayload-len(k))); err != nil {
		t.Fatalf("at-cap put failed: %v", err)
	}
	if err := s.Put(k, make([]byte, maxPayload)); err == nil || !ErrTooLarge(err) {
		t.Fatalf("over-cap put: %v", err)
	}
}

// TestOversizeLeavesNoLogRecord: a pair the tree cannot hold is refused
// before it reaches the log. Logged first, it made every later recovery
// fail on the record the tree refuses again — an archive that would not
// open.
func TestOversizeLeavesNoLogRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("before"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if err := s.Put([]byte("k"), make([]byte, maxPayload)); !ErrTooLarge(err) {
		t.Fatalf("oversize Put: %v, want too large", err)
	}
	batch := []KV{
		{Key: []byte("b1"), Value: []byte("x")},
		{Key: []byte("b2"), Value: make([]byte, PageSize)},
		{Key: []byte("b3"), Value: []byte("x")},
	}
	if err := s.PutBatch(batch); !ErrTooLarge(err) {
		t.Fatalf("PutBatch with an oversize pair: %v, want too large", err)
	}
	if err := s.PutBatch([]KV{{Key: []byte("b4"), Value: []byte("x")}, {Value: []byte("no key")}}); err == nil {
		t.Fatal("PutBatch with an empty key succeeded")
	}
	if after := s.Stats(); after.Commits != before.Commits || after.WALBytes != before.WALBytes {
		t.Fatalf("refused writes reached the log: commits %d → %d, bytes %d → %d",
			before.Commits, after.Commits, before.WALBytes, after.WALBytes)
	}
	// Crash: drop the handles without Close, so Open replays the log.
	s.wal.f.Close()
	s.pager.f.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after refused writes: %v", err)
	}
	defer s2.Close()
	if v, ok, _ := s2.Get([]byte("before")); !ok || string(v) != "1" {
		t.Fatalf("earlier key after recovery: %q ok=%v", v, ok)
	}
	for _, k := range []string{"k", "b1", "b2", "b3", "b4"} {
		if _, ok, _ := s2.Get([]byte(k)); ok {
			t.Errorf("key %q of a refused write is in the store", k)
		}
	}
	if keyCount(s2) != 1 {
		t.Fatalf("Len = %d, want 1", keyCount(s2))
	}
}

// TestFreeListHeadRefused: no version of the store fed the free list, so a
// meta page that names a free-list head was not written by one.
func TestFreeListHeadRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Put([]byte("k"), []byte("v"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "data.db"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{7, 0, 0, 0}, metaFreeOff); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "free-list head 7") {
		t.Fatalf("Open with a free-list head: %v, want an error naming it", err)
	}
}

// TestForeignMagicRefused: a data.db whose meta page holds another page
// layout's magic (here "MEMEX", the full-key leaf layout before prefix
// leaves) is refused at Open, the error naming the magic found and the one
// this build reads, and Open writes nothing: every file of the directory
// is byte for byte what it was, and no file is added.
func TestForeignMagicRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Put([]byte("k"), []byte("v"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "data.db"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(binary.LittleEndian.AppendUint64(nil, 0x4d454d4558), metaMagicOff); err != nil {
		t.Fatal(err)
	}
	f.Close()
	files := func() map[string]string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, ent := range entries {
			raw, err := os.ReadFile(filepath.Join(dir, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[ent.Name()] = string(raw)
		}
		return out
	}
	before := files()
	if s, err := Open(dir, Options{}); err == nil {
		s.Close()
		t.Fatal("Open of a foreign magic succeeded")
	} else if !strings.Contains(err.Error(), "0x4d454d4558") || !strings.Contains(err.Error(), "MEMEX2") {
		t.Fatalf("Open: %v, want an error naming the magic found and MEMEX2", err)
	}
	if after := files(); !maps.Equal(after, before) {
		t.Fatal("the refused Open changed the directory")
	}
}
