package version_test

// The tests here reach core.Open, which refuses a store the cold tier's own
// Open reads past: one without the archive's format stamp. core imports
// version, so they sit in the external test package.

import (
	"encoding/binary"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memex/internal/core"
	"memex/internal/kvstore"
	"memex/internal/version"
)

func openStore(t *testing.T, dir string) *kvstore.Store {
	t.Helper()
	kv, err := kvstore.Open(dir, kvstore.Options{Sync: kvstore.SyncGroup})
	if err != nil {
		t.Fatalf("kvstore.Open: %v", err)
	}
	return kv
}

// coldArchive folds k000…k039 through a bare version store into the
// kvstore in dir, a cold tier with no format stamp, and returns the
// kvstore, open.
func coldArchive(t *testing.T, dir string) *kvstore.Store {
	t.Helper()
	kv := openStore(t, dir)
	s, err := version.Open(kv, "vc/", version.Options{})
	if err != nil {
		t.Fatalf("version.Open: %v", err)
	}
	for i := 0; i < 40; i++ {
		b := s.BeginSized(0)
		b.Put(fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("v%03d", i)))
		if err := b.Publish(); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return kv
}

func countKeys(t *testing.T, kv *kvstore.Store) int {
	t.Helper()
	n := 0
	if err := kv.Scan(nil, nil, func(_, _ []byte) bool { n++; return true }); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return n
}

// dirFiles reads every file under dir, for before/after comparison.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		files[path] = string(raw)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

type noPages struct{}

func (noPages) Lookup(string) (core.Content, bool) { return core.Content{}, false }

// refusedByCore wants core.Open to refuse the archive in dir with an error
// naming each of want, and dir's files byte for byte what they were.
func refusedByCore(t *testing.T, dir string, want ...string) {
	t.Helper()
	before := dirFiles(t, dir)
	e, err := core.Open(core.Config{Dir: dir, Source: noPages{}})
	if err == nil {
		e.Close()
		t.Fatal("core.Open accepted the archive")
	}
	for _, w := range want {
		if !strings.Contains(err.Error(), w) {
			t.Errorf("error %q does not mention %s", err, w)
		}
	}
	if !maps.Equal(dirFiles(t, dir), before) {
		t.Fatal("the refused Open changed the archive on disk")
	}
}

// TestMalformedMetaRefusedAtOpen: m/wm is the cold tier's one meta record,
// and version.Open refuses one of the wrong length (a guessed watermark
// would reissue epochs the archive already holds) before it writes
// anything, so repairing the record recovers every record. A cold tier
// holding m/shards (the key-hash-sharded layout's) or m/gen and m/done
// (those of the layout that kept every version of a key) was written
// before the archive's format stamp, and core.Open refuses it, leaving its
// files as they were.
func TestMalformedMetaRefusedAtOpen(t *testing.T) {
	t.Run("wm", func(t *testing.T) {
		kv := coldArchive(t, t.TempDir())
		defer kv.Close()

		key := []byte("vc/m/wm")
		good, present, err := kv.Get(key)
		if err != nil || !present {
			t.Fatalf("read %s: %v present=%v", key, err, present)
		}
		bad := good[:7]
		if err := kv.Put(key, bad); err != nil {
			t.Fatal(err)
		}
		commits, keys := kv.Stats().Commits, countKeys(t, kv)
		_, err = version.Open(kv, "vc/", version.Options{})
		if err == nil {
			t.Fatalf("Open accepted a %d-byte %s", len(bad), key)
		}
		for _, want := range []string{string(key), fmt.Sprintf("%d bytes", len(bad))} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not mention %q", err, want)
			}
		}
		if kv.Stats().Commits != commits || countKeys(t, kv) != keys {
			t.Fatalf("the refused Open wrote to the keyspace")
		}

		if err := kv.Put(key, good); err != nil {
			t.Fatal(err)
		}
		s2, err := version.Open(kv, "vc/", version.Options{})
		if err != nil {
			t.Fatalf("repaired reopen: %v", err)
		}
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
	for _, tc := range []struct {
		key   string
		value []byte
	}{
		{"shards", []byte{0, 0, 0, 8}}, // a sharded layout's count
		{"gen", binary.BigEndian.AppendUint64(nil, 3)},
		{"done", binary.AppendUvarint(binary.BigEndian.AppendUint64(nil, 3), 40)},
	} {
		t.Run(tc.key, func(t *testing.T) {
			dir := t.TempDir()
			kv := coldArchive(t, dir)
			if err := kv.Put([]byte("vc/m/"+tc.key), tc.value); err != nil {
				t.Fatal(err)
			}
			if err := kv.Close(); err != nil {
				t.Fatal(err)
			}
			refusedByCore(t, dir, "no format stamp")
		})
	}
}

// TestOpenRefusesShardedArchive: a keyspace written by the key-hash-sharded
// layout — every fold of which wrote m/shards — keeps a shard number in
// every record key, which the cold tier would read as foreign keys and
// serve as misses. It predates the format stamp, so core.Open refuses it,
// naming the key, before it writes anything, even when m/shards is the
// only record there.
func TestOpenRefusesShardedArchive(t *testing.T) {
	dir := t.TempDir()
	kv := openStore(t, dir)
	if err := kv.Put([]byte("vc/m/shards"), []byte{0, 0, 0, 8}); err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	refusedByCore(t, dir, `"vc/m/shards"`, "no format stamp")
}
