package version

import (
	"fmt"
	"strings"
	"testing"
)

// TestCleanReopenSkipsRecoveryScan pins the bounded-recovery contract:
// when the last fold round ran to completion (m/gen == m/done), reopen
// trusts the fold-completion record — no O(cold tier) purge scan, exact
// per-shard record counts — and still serves every record.
func TestCleanReopenSkipsRecoveryScan(t *testing.T) {
	dir := t.TempDir()
	kv := openKV(t, dir)
	defer kv.Close()
	s := openCold(t, kv, Options{Shards: 4})
	for i := 0; i < 60; i++ {
		publishKV(t, s, map[string]string{fmt.Sprintf("k%03d", i): fmt.Sprintf("v%03d", i)})
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openCold(t, kv, Options{Shards: 4})
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
	s := openCold(t, kv, Options{Shards: 4})
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

	s2 := openCold(t, kv, Options{Shards: 4})
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
// precondition: a completion record whose per-shard counts don't match
// the shard count (truncated or corrupt) cannot be trusted, so reopen
// must fall back to the scan — never serve made-up record counts.
func TestCorruptDoneMetaForcesScan(t *testing.T) {
	dir := t.TempDir()
	kv := openKV(t, dir)
	defer kv.Close()
	s := openCold(t, kv, Options{Shards: 4})
	for i := 0; i < 20; i++ {
		publishKV(t, s, map[string]string{fmt.Sprintf("k%03d", i): fmt.Sprintf("v%03d", i)})
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Truncate m/done to its generation header: gen still matches m/gen,
	// but the per-shard counts are gone.
	tier := &coldTier{prefix: []byte("vc/")}
	raw, ok, err := kv.Get(tier.metaKey("done"))
	if err != nil || !ok || len(raw) < 8 {
		t.Fatalf("read done meta: %v ok=%v len=%d", err, ok, len(raw))
	}
	if err := kv.Put(tier.metaKey("done"), raw[:8]); err != nil {
		t.Fatalf("truncate done meta: %v", err)
	}

	s2 := openCold(t, kv, Options{Shards: 4})
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
// purged every record as "above the watermark"; a short m/shards fell
// back to the default count and misrouted every key.) Open must refuse
// before it writes anything, so repairing the key recovers every record.
func TestMalformedMetaRefusedAtOpen(t *testing.T) {
	for _, tc := range []struct {
		key    string
		mangle func(raw []byte) []byte
	}{
		{"wm", func(raw []byte) []byte { return raw[:7] }},
		{"shards", func(raw []byte) []byte { return append(raw, 0) }},
		{"gen", func(raw []byte) []byte { return raw[:4] }},
		{"done", func(raw []byte) []byte { return raw[:5] }},
		{"done", func(raw []byte) []byte { return append(raw, 0x80) }}, // cut inside a shard count
	} {
		t.Run(tc.key, func(t *testing.T) {
			kv := openKV(t, t.TempDir())
			defer kv.Close()
			s := openCold(t, kv, Options{Shards: 8}) // not the default: a guessed count misroutes
			for i := 0; i < 40; i++ {
				publishKV(t, s, map[string]string{fmt.Sprintf("k%03d", i): fmt.Sprintf("v%03d", i)})
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			key := (&coldTier{prefix: []byte("vc/")}).metaKey(tc.key)
			good, ok, err := kv.Get(key)
			if err != nil || !ok {
				t.Fatalf("read %s: %v ok=%v", key, err, ok)
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

			if err := kv.Put(key, good); err != nil {
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
