package version

import (
	"fmt"
	"strings"
	"testing"
)

// TestCleanReopenSkipsRecoveryScan pins the bounded-recovery contract:
// when the last fold round ran to completion (m/gen == m/done), reopen
// trusts the fold-completion record — no O(cold tier) purge scan, the exact
// record count — and still serves every record.
func TestCleanReopenSkipsRecoveryScan(t *testing.T) {
	dir := t.TempDir()
	kv := openKV(t, dir)
	defer kv.Close()
	s := openCold(t, kv, Options{})
	for i := 0; i < 60; i++ {
		publishKV(t, s, map[string]string{fmt.Sprintf("k%03d", i): fmt.Sprintf("v%03d", i)})
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openCold(t, kv, Options{})
	defer s2.Close()
	cs := s2.StoreStats().Cold
	if cs == nil {
		t.Fatal("no cold stats")
	}
	if !cs.CleanOpen {
		t.Fatal("reopen after a completed fold did not take the clean path")
	}
	if cs.RecoveryScanned != 0 {
		t.Fatalf("clean reopen scanned %d keys, want 0", cs.RecoveryScanned)
	}
	if cs.FoldGen == 0 {
		t.Fatal("fold generation not recovered")
	}
	if cs.Records != 60 {
		t.Fatalf("clean reopen counted %d records, want 60", cs.Records)
	}
	sn := s2.Acquire()
	defer sn.Release()
	for i := 0; i < 60; i++ {
		v, ok := sn.Get(fmt.Sprintf("k%03d", i))
		if !ok || string(v) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("k%03d = %q ok=%v after clean reopen", i, v, ok)
		}
	}
}

// TestTornReopenRunsRecoveryScan is the other half: without a matching
// fold-completion record (a crash between a fold's start and its
// cleanup), reopen must fall back to the full purge scan — and recover
// the same data.
func TestTornReopenRunsRecoveryScan(t *testing.T) {
	dir := t.TempDir()
	kv := openKV(t, dir)
	defer kv.Close()
	s := openCold(t, kv, Options{})
	for i := 0; i < 40; i++ {
		publishKV(t, s, map[string]string{fmt.Sprintf("k%03d", i): fmt.Sprintf("v%03d", i)})
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Simulate the torn fold: the round bumped m/gen but died before
	// writing m/done.
	tier := &coldTier{prefix: []byte("vc/")}
	if err := kv.Delete(tier.metaKey("done")); err != nil {
		t.Fatalf("delete done meta: %v", err)
	}

	s2 := openCold(t, kv, Options{})
	defer s2.Close()
	cs := s2.StoreStats().Cold
	if cs == nil {
		t.Fatal("no cold stats")
	}
	if cs.CleanOpen {
		t.Fatal("reopen without a fold-completion record claimed the clean path")
	}
	if cs.RecoveryScanned == 0 {
		t.Fatal("torn reopen did not scan the cold tier")
	}
	if cs.Records != 40 {
		t.Fatalf("torn reopen counted %d records, want 40", cs.Records)
	}
	sn := s2.Acquire()
	defer sn.Release()
	for i := 0; i < 40; i++ {
		v, ok := sn.Get(fmt.Sprintf("k%03d", i))
		if !ok || string(v) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("k%03d = %q ok=%v after torn reopen", i, v, ok)
		}
	}
}

// TestCorruptDoneMetaForcesScan guards the clean path's last
// precondition: a completion record that stops after its generation
// vouches for no record count, so reopen must fall back to the scan —
// never serve a made-up count.
func TestCorruptDoneMetaForcesScan(t *testing.T) {
	dir := t.TempDir()
	kv := openKV(t, dir)
	defer kv.Close()
	s := openCold(t, kv, Options{})
	for i := 0; i < 20; i++ {
		publishKV(t, s, map[string]string{fmt.Sprintf("k%03d", i): fmt.Sprintf("v%03d", i)})
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Truncate m/done to its generation header: gen still matches m/gen,
	// but the record count is gone.
	tier := &coldTier{prefix: []byte("vc/")}
	raw, ok, err := kv.Get(tier.metaKey("done"))
	if err != nil || !ok || len(raw) < 8 {
		t.Fatalf("read done meta: %v ok=%v len=%d", err, ok, len(raw))
	}
	if err := kv.Put(tier.metaKey("done"), raw[:8]); err != nil {
		t.Fatalf("truncate done meta: %v", err)
	}

	s2 := openCold(t, kv, Options{})
	defer s2.Close()
	cs := s2.StoreStats().Cold
	if cs.CleanOpen {
		t.Fatal("truncated completion record took the clean path")
	}
	if cs.Records != 20 {
		t.Fatalf("rescan counted %d records, want 20", cs.Records)
	}
}

// TestMalformedMetaRefusedAtOpen: a present m/ record of the wrong shape
// is an error naming the key and the length found — never a guess. (A
// short m/wm used to read as watermark 0, after which the recovery scan
// purged every record as "above the watermark".) m/shards is retired: the
// one-chain layout never writes it, so it has no right shape and its good
// state is absence. Open must refuse before it writes anything, so
// repairing the key recovers every record.
func TestMalformedMetaRefusedAtOpen(t *testing.T) {
	for _, tc := range []struct {
		key    string
		mangle func(raw []byte) []byte
	}{
		{"wm", func(raw []byte) []byte { return raw[:7] }},
		{"shards", func([]byte) []byte { return []byte{0, 0, 0, 8} }}, // a sharded layout's count
		{"gen", func(raw []byte) []byte { return raw[:4] }},
		{"done", func(raw []byte) []byte { return raw[:5] }},
		{"done", func(raw []byte) []byte { return append(raw, 0x80) }}, // bytes past the record count
	} {
		t.Run(tc.key, func(t *testing.T) {
			kv := openKV(t, t.TempDir())
			defer kv.Close()
			s := openCold(t, kv, Options{})
			for i := 0; i < 40; i++ {
				publishKV(t, s, map[string]string{fmt.Sprintf("k%03d", i): fmt.Sprintf("v%03d", i)})
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			key := (&coldTier{prefix: []byte("vc/")}).metaKey(tc.key)
			good, present, err := kv.Get(key)
			if err != nil || present == (tc.key == "shards") {
				t.Fatalf("read %s: %v present=%v", key, err, present)
			}
			bad := tc.mangle(append([]byte(nil), good...))
			if err := kv.Put(key, bad); err != nil {
				t.Fatal(err)
			}
			_, err = Open(kv, "vc/", Options{})
			if err == nil {
				t.Fatalf("Open accepted a %d-byte %s", len(bad), key)
			}
			for _, want := range []string{string(key), fmt.Sprintf("%d bytes", len(bad))} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}

			repair := func() error { return kv.Put(key, good) }
			if !present {
				repair = func() error { return kv.Delete(key) }
			}
			if err := repair(); err != nil {
				t.Fatal(err)
			}
			s2 := openCold(t, kv, Options{})
			defer s2.Close()
			if cs := s2.StoreStats().Cold; cs.Records != 40 {
				t.Fatalf("repaired reopen counted %d records, want 40", cs.Records)
			}
			sn := s2.Acquire()
			defer sn.Release()
			for i := 0; i < 40; i++ {
				if v, ok := sn.Get(fmt.Sprintf("k%03d", i)); !ok || string(v) != fmt.Sprintf("v%03d", i) {
					t.Fatalf("k%03d = %q ok=%v after the repaired reopen", i, v, ok)
				}
			}
		})
	}
}

// TestOpenRefusesShardedArchive: a keyspace written by the key-hash-sharded
// layout — every fold of which wrote m/shards — keeps a shard number in
// every record key, which this store would read as foreign keys and serve
// as misses. Open refuses it, naming the key, before it writes anything.
func TestOpenRefusesShardedArchive(t *testing.T) {
	kv := openKV(t, t.TempDir())
	defer kv.Close()
	key := (&coldTier{prefix: []byte("vc/")}).metaKey("shards")
	if err := kv.Put(key, []byte{0, 0, 0, 8}); err != nil {
		t.Fatal(err)
	}
	commits := kv.Stats().Commits
	_, err := Open(kv, "vc/", Options{})
	if err == nil {
		t.Fatalf("Open accepted a keyspace holding %s", key)
	}
	if !strings.Contains(err.Error(), string(key)) {
		t.Errorf("error %q does not name %s", err, key)
	}
	if got := kv.Stats().Commits; got != commits {
		t.Fatalf("the refused Open wrote %d commits", got-commits)
	}
	if kv.Len() != 1 {
		t.Fatalf("the refused Open left %d keys, want only %s", kv.Len(), key)
	}
}
