package version

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memex/internal/kvstore"
)

// TestMalformedMetaRefusedAtOpen: m/wm is the one meta record, so any other
// m/ record — m/shards from the key-hash-sharded layout, m/gen and m/done
// from the one that kept every version of a key — is refused by name, and
// so is an m/wm of the wrong length (a guessed watermark would reissue
// epochs the archive already holds). Open refuses before it writes anything,
// so repairing the key recovers every record.
func TestMalformedMetaRefusedAtOpen(t *testing.T) {
	for _, tc := range []struct {
		key    string
		mangle func(good []byte) []byte // good is nil for a record the layout never writes
	}{
		{"wm", func(good []byte) []byte { return good[:7] }},
		{"shards", func([]byte) []byte { return []byte{0, 0, 0, 8} }}, // a sharded layout's count
		{"gen", func([]byte) []byte { return binary.BigEndian.AppendUint64(nil, 3) }},
		{"done", func([]byte) []byte { return binary.AppendUvarint(binary.BigEndian.AppendUint64(nil, 3), 40) }},
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

			key := s.cold.metaKey(tc.key)
			good, present, err := kv.Get(key)
			if err != nil || present != (tc.key == "wm") {
				t.Fatalf("read %s: %v present=%v", key, err, present)
			}
			bad := tc.mangle(good)
			if err := kv.Put(key, bad); err != nil {
				t.Fatal(err)
			}
			commits, keys := kv.Stats().Commits, kvKeys(t, kv)
			_, err = Open(kv, "vc/", Options{})
			if err == nil {
				t.Fatalf("Open accepted a %d-byte %s", len(bad), key)
			}
			for _, want := range []string{string(key), fmt.Sprintf("%d bytes", len(bad))} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
			if kv.Stats().Commits != commits || kvKeys(t, kv) != keys {
				t.Fatalf("the refused Open wrote to the keyspace")
			}

			repair := func() error { return kv.Put(key, good) }
			if !present {
				repair = func() error { return kv.PutBatch([]kvstore.KV{{Key: key, Delete: true}}) }
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
// as misses. Open refuses it, naming the key, before it writes anything,
// even when m/shards is the only record there (no m/wm to read).
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
	if kvKeys(t, kv) != 1 {
		t.Fatalf("the refused Open left %d keys, want only %s", kvKeys(t, kv), key)
	}
}

// walRecordEnds returns the offset just past each record of a kvstore log
// (lsn 8, op 1, klen 4, vlen 4, key, value, crc 4; little-endian).
func walRecordEnds(log []byte) []int64 {
	var ends []int64
	for off := 0; off+17 <= len(log); {
		off += 17 + int(binary.LittleEndian.Uint32(log[off+9:])) + int(binary.LittleEndian.Uint32(log[off+13:])) + 4
		ends = append(ends, int64(off))
	}
	return ends
}

// TestFoldCommitCutAtEveryRecord is the crash oracle for a fold round: the
// round is one kvstore commit, so a crash image whose log is cut after any
// of the commit's records — or inside one — reopens to exactly the state
// before the round, and only the whole commit to exactly the state after
// it: watermark, key count and every key's value. The round overwrites
// keys, adds keys, shrinks a multi-part value and grows another.
func TestFoldCommitCutAtEveryRecord(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "kv")
	opts := kvstore.Options{Sync: kvstore.SyncGroup}
	kv, err := kvstore.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	s := openCold(t, kv, Options{})

	pre := map[string]string{
		"shrinks": strings.Repeat("s", 3000),
		"grows":   "g",
	}
	for i := 0; i < 12; i++ {
		pre[fmt.Sprintf("k%02d", i)] = fmt.Sprintf("r1-%02d", i)
	}
	publishKV(t, s, pre)
	if _, err := s.Fold(); err != nil {
		t.Fatal(err)
	}
	if err := kv.Checkpoint(); err != nil { // the log now holds the next round alone
		t.Fatal(err)
	}
	wmPre := s.Watermark()

	post := map[string]string{}
	for k, v := range pre {
		post[k] = v
	}
	for i := 0; i < 12; i += 3 {
		k := fmt.Sprintf("k%02d", i)
		post[k] = "r2-" + k
		publishKV(t, s, map[string]string{k: post[k]})
	}
	post["shrinks"], post["grows"], post["new"] = "s", strings.Repeat("G", 4000), "n"
	publishKV(t, s, map[string]string{"shrinks": post["shrinks"], "grows": post["grows"], "new": post["new"]})
	commits := kv.Stats().Commits
	if _, err := s.Fold(); err != nil {
		t.Fatal(err)
	}
	if got := kv.Stats().Commits - commits; got != 1 {
		t.Fatalf("the round took %d kvstore commits, want 1", got)
	}
	wmPost := s.Watermark()
	if s.StoreStats().Cold.Records != int64(len(post)) {
		t.Fatalf("Cold.Records = %d after the round, want %d", s.StoreStats().Cold.Records, len(post))
	}

	db, err := os.ReadFile(filepath.Join(dir, "data.db"))
	if err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	ends := walRecordEnds(log)
	if len(ends) < 8 || ends[len(ends)-1] != int64(len(log)) {
		t.Fatalf("log of %d bytes parses into %d records ending at %v", len(log), len(ends), ends)
	}
	cuts := append([]int64{0, ends[len(ends)/2] - 5, int64(len(log)) - 2}, ends...)
	for _, cut := range cuts {
		img := filepath.Join(t.TempDir(), "kv")
		if err := os.MkdirAll(img, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(img, "data.db"), db, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(img, "wal.log"), log[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		want, wantWM := pre, wmPre
		if cut == int64(len(log)) {
			want, wantWM = post, wmPost
		}
		func() {
			kv2, err := kvstore.Open(img, opts)
			if err != nil {
				t.Fatalf("cut at %d: %v", cut, err)
			}
			defer kv2.Close()
			s2 := openCold(t, kv2, Options{})
			if s2.Watermark() != wantWM || s2.StoreStats().Cold.Records != int64(len(want)) {
				t.Fatalf("cut at %d of %d: watermark %d, Cold.Records %d; want %d and %d",
					cut, len(log), s2.Watermark(), s2.StoreStats().Cold.Records, wantWM, len(want))
			}
			sn := s2.Acquire()
			defer sn.Release()
			for _, k := range []string{"new", "shrinks", "grows", "k00", "k01"} {
				v, ok := sn.Get(k)
				if w, has := want[k]; ok != has || string(v) != w {
					t.Fatalf("cut at %d of %d: Get(%s) = %d bytes, %v; want %d bytes, %v", cut, len(log), k, len(v), ok, len(w), has)
				}
			}
			got := map[string]string{}
			if err := sn.Range(func(k string, v []byte) bool {
				got[k] = string(v)
				return true
			}); err != nil {
				t.Fatalf("cut at %d: Range: %v", cut, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("cut at %d of %d: Range = %v, want %v", cut, len(log), got, want)
			}
		}()
	}
}
