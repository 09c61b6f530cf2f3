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
