package version

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"memex/internal/kvstore"
)

// openKV opens the test kvstore for dir (SyncNever: the crash model under
// test is the version layer's watermark contract, not fsync behaviour —
// kvstore's own WAL tests cover torn files).
func openKV(t *testing.T, dir string) *kvstore.Store {
	t.Helper()
	kv, err := kvstore.Open(filepath.Join(dir, "kv"), kvstore.Options{Sync: kvstore.SyncNever})
	if err != nil {
		t.Fatalf("kvstore.Open: %v", err)
	}
	return kv
}

func openCold(t *testing.T, kv *kvstore.Store, o Options) *Store {
	t.Helper()
	s, err := Open(kv, "vc/", o)
	if err != nil {
		t.Fatalf("version.Open: %v", err)
	}
	return s
}

// publishKV publishes one batch of key→value pairs and returns its epoch.
func publishKV(t *testing.T, s *Store, kvs map[string]string) uint64 {
	t.Helper()
	b := s.Begin()
	for k, v := range kvs {
		b.Put(k, []byte(v))
	}
	e := b.Epoch()
	if err := b.Publish(); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	return e
}

func TestColdFoldAndFallthrough(t *testing.T) {
	dir := t.TempDir()
	kv := openKV(t, dir)
	defer kv.Close()
	s := openCold(t, kv, Options{})

	for i := 0; i < 100; i++ {
		publishKV(t, s, map[string]string{fmt.Sprintf("k%03d", i): fmt.Sprintf("v%03d", i)})
	}
	// Overwrite a few and tombstone a few before folding.
	publishKV(t, s, map[string]string{"k007": "v007-new"})
	b := s.Begin()
	b.Delete("k009")
	if err := b.Publish(); err != nil {
		t.Fatal(err)
	}

	n, err := s.Fold()
	if err != nil {
		t.Fatalf("Fold: %v", err)
	}
	if n == 0 {
		t.Fatal("Fold moved nothing")
	}
	if got := s.VersionCount(); got != 0 {
		t.Fatalf("in-memory versions after full fold = %d, want 0", got)
	}
	if s.ColdRecords() == 0 {
		t.Fatal("no cold records after fold")
	}

	sn := s.Acquire()
	defer sn.Release()
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%03d", i)
		want := fmt.Sprintf("v%03d", i)
		if i == 7 {
			want = "v007-new"
		}
		v, ok := sn.Get(key)
		if i == 9 {
			if ok {
				t.Fatalf("tombstoned %s resurfaced from cold tier", key)
			}
			continue
		}
		if !ok || string(v) != want {
			t.Fatalf("Get(%s) = %q,%v after fold, want %q", key, v, ok, want)
		}
	}
	// Superseded version and dead tombstone reclaimed on disk: 100 keys
	// minus the tombstoned one.
	if got := s.ColdRecords(); got != 99 {
		t.Fatalf("cold records after cleanup = %d, want 99", got)
	}
}

// TestColdHotShadowsCold: an in-memory write (including a tombstone) for
// a key that already lives on disk must win for every new snapshot.
func TestColdHotShadowsCold(t *testing.T) {
	dir := t.TempDir()
	kv := openKV(t, dir)
	defer kv.Close()
	s := openCold(t, kv, Options{})

	publishKV(t, s, map[string]string{"a": "old", "b": "keep"})
	if _, err := s.Fold(); err != nil {
		t.Fatal(err)
	}
	publishKV(t, s, map[string]string{"a": "new"})
	b := s.Begin()
	b.Delete("b")
	if err := b.Publish(); err != nil {
		t.Fatal(err)
	}

	sn := s.Acquire()
	if v, ok := sn.Get("a"); !ok || string(v) != "new" {
		t.Fatalf("Get(a) = %q,%v, want fresh in-memory value", v, ok)
	}
	if _, ok := sn.Get("b"); ok {
		t.Fatal("in-memory tombstone failed to shadow cold record")
	}
	keys := sn.Keys()
	if fmt.Sprint(keys) != "[a]" {
		t.Fatalf("Keys = %v, want [a]", keys)
	}
	sn.Release()

	// And the shadowing must survive the next fold + a restart. The fold
	// writes the tombstone through, and once it is durable reclaims it
	// together with the record it shadowed: only a's new version is left.
	if _, err := s.Fold(); err != nil {
		t.Fatal(err)
	}
	if got := s.VersionCount(); got != 0 {
		t.Fatalf("%d versions still resident after the fold", got)
	}
	if got, phys := s.ColdRecords(), physicalRecords(s, kv); got != 1 || phys != 1 {
		t.Fatalf("ColdRecords = %d, %d on disk; want 1 (b's record went with its tombstone, a's old version with the new one)", got, phys)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openCold(t, kv, Options{})
	sn2 := s2.Acquire()
	defer sn2.Release()
	if v, ok := sn2.Get("a"); !ok || string(v) != "new" {
		t.Fatalf("after restart Get(a) = %q,%v", v, ok)
	}
	if _, ok := sn2.Get("b"); ok {
		t.Fatal("tombstoned key resurrected by restart")
	}
}

// TestCrashRecoveryMidFold is the ISSUE 3 crash test: kill the store
// mid-fold at each failpoint, reopen, and assert that every published
// epoch at or below the recovered watermark is readable and that no epoch
// above the watermark leaks.
func TestCrashRecoveryMidFold(t *testing.T) {
	errCrash := errors.New("injected crash")
	for _, point := range []FoldPoint{FoldAfterWrite, FoldAfterWatermark} {
		t.Run(fmt.Sprintf("point=%d", point), func(t *testing.T) {
			dir := t.TempDir()
			kv := openKV(t, dir)
			defer kv.Close()
			s := openCold(t, kv, Options{})

			// Round 1: establish a durable base, including a key the
			// crashed fold will later overwrite — the overwrite's partial
			// records must not destroy the durable old version.
			model := map[string]string{}
			for i := 0; i < 40; i++ {
				k, v := fmt.Sprintf("k%02d", i), fmt.Sprintf("r1-%02d", i)
				publishKV(t, s, map[string]string{k: v})
				model[k] = v
			}
			if _, err := s.Fold(); err != nil {
				t.Fatal(err)
			}
			wm1 := s.Watermark()

			// Round 2: more publishes (overwrites and news), then a fold
			// that dies at the injected point.
			round2 := map[string]string{}
			for i := 0; i < 40; i++ {
				k, v := fmt.Sprintf("k%02d", i*2), fmt.Sprintf("r2-%02d", i*2)
				publishKV(t, s, map[string]string{k: v})
				round2[k] = v
			}
			wm2 := s.Watermark()
			s.SetFoldHook(func(p FoldPoint) error {
				if p == point {
					return errCrash
				}
				return nil
			})
			if _, err := s.Fold(); !errors.Is(err, errCrash) {
				t.Fatalf("Fold error = %v, want injected crash", err)
			}
			// The process dies here: drop s on the floor, reopen the
			// keyspace. (kv survives — the kvstore's own WAL-replay tests
			// cover torn files; this test pins the version layer's
			// watermark contract over whatever subset of writes survived.)
			s2 := openCold(t, kv, Options{})

			wantWM := wm1
			if point == FoldAfterWatermark {
				wantWM = wm2
				// The watermark committed, so round 2 is durable.
				for k, v := range round2 {
					model[k] = v
				}
			}
			if got := s2.Watermark(); got != wantWM {
				t.Fatalf("recovered watermark = %d, want %d", got, wantWM)
			}

			sn := s2.Acquire()
			for k, v := range model {
				got, ok := sn.Get(k)
				if !ok || string(got) != v {
					t.Fatalf("epoch ≤ watermark lost: Get(%s) = %q,%v, want %q", k, got, ok, v)
				}
			}
			if point == FoldAfterWrite {
				// No epoch above the watermark may leak: the torn fold's
				// records were purged, so every key reads as round 1.
				for k := range round2 {
					got, ok := sn.Get(k)
					if want, existed := model[k]; existed {
						if !ok || string(got) != want {
							t.Fatalf("Get(%s) = %q,%v, want durable %q", k, got, ok, want)
						}
					} else if ok {
						t.Fatalf("epoch > watermark leaked: Get(%s) = %q", k, got)
					}
				}
				// And nothing above the watermark survives on disk either.
				kv.ScanPrefix([]byte("vc/r/"), func(k, _ []byte) bool {
					key, epoch, _, ok := s2.cold.parseRecordKey(k)
					if ok && epoch > wantWM {
						t.Errorf("stale record %q at epoch %d > watermark %d", key, epoch, wantWM)
					}
					return true
				})
			}

			// Release the verification pin — a pinned snapshot would
			// (correctly) hold the next fold's floor at the old watermark.
			sn.Release()

			// Life goes on: epochs resume above the watermark, publish and
			// fold work, and a clean restart sees everything.
			b := s2.Begin()
			if b.Epoch() != wantWM+1 {
				t.Fatalf("resumed epoch = %d, want %d", b.Epoch(), wantWM+1)
			}
			b.Put("post", []byte("crash"))
			if err := b.Publish(); err != nil {
				t.Fatal(err)
			}
			if _, err := s2.Fold(); err != nil {
				t.Fatalf("Fold after recovery: %v", err)
			}
			s3 := openCold(t, kv, Options{})
			sn3 := s3.Acquire()
			defer sn3.Release()
			if v, ok := sn3.Get("post"); !ok || string(v) != "crash" {
				t.Fatalf("post-recovery publish lost: %q,%v", v, ok)
			}
		})
	}
}

// physicalRecords counts the part-0 records on disk: what ColdRecords claims
// to know without looking.
func physicalRecords(s *Store, kv *kvstore.Store) int64 {
	n := int64(0)
	kv.ScanPrefix([]byte("vc/r/"), func(k, _ []byte) bool {
		if _, _, part, ok := s.cold.parseRecordKey(k); ok && part == 0 {
			n++
		}
		return true
	})
	return n
}

// TestColdRecordsSurviveAbandonedSplice: a fold that fails after its record
// writes — before or after its watermark write — abandons its splice. The
// data is never at risk: the layers stay resident and shadow whatever the
// round wrote, and had the process died instead, Open would have purged
// what lies above the watermark. What is at risk is the bookkeeping: the
// round's records are on disk uncounted, the next round overwrites some and
// its cleanup deletes others, and m/done vouches for the result to every
// later clean reopen. So: the failure is counted where an operator sees it,
// every key reads its newest value throughout, the next fold — with ingest
// idle or after republishes — reclaims the memory, and ColdRecords equals a
// physical recount, in process and after a clean reopen that scans nothing.
func TestColdRecordsSurviveAbandonedSplice(t *testing.T) {
	errInjected := errors.New("injected fold failure")
	for _, point := range []FoldPoint{FoldAfterWrite, FoldAfterWatermark} {
		for _, idle := range []bool{true, false} {
			t.Run(fmt.Sprintf("point=%d/idle=%v", point, idle), func(t *testing.T) {
				kv := openKV(t, t.TempDir())
				defer kv.Close()
				s := openCold(t, kv, Options{})
				model := map[string]string{}
				round := func(tag string) {
					for i := 0; i < 10; i++ {
						k := fmt.Sprintf("k%02d", i)
						model[k] = tag + k
						publishKV(t, s, map[string]string{k: model[k]})
					}
				}
				check := func(when string) {
					t.Helper()
					sn := s.Acquire()
					defer sn.Release()
					for k, v := range model {
						if got, ok := sn.Get(k); !ok || string(got) != v {
							t.Fatalf("%s: Get(%s) = %q,%v, want %q", when, k, got, ok, v)
						}
					}
				}

				round("r1-")
				if _, err := s.Fold(); err != nil {
					t.Fatal(err)
				}
				round("r2-")
				s.SetFoldHook(func(p FoldPoint) error {
					if p == point {
						return errInjected
					}
					return nil
				})
				if _, err := s.Fold(); !errors.Is(err, errInjected) {
					t.Fatalf("Fold error = %v, want the injected failure", err)
				}
				s.SetFoldHook(nil)
				if st := s.StoreStats().Cold; st.FoldErrors != 1 || st.LastFoldError != errInjected.Error() {
					t.Fatalf("FoldErrors = %d, LastFoldError = %q after one failed round", st.FoldErrors, st.LastFoldError)
				}
				if s.VersionCount() == 0 {
					t.Fatal("the failed round spliced its layers out")
				}
				check("after the failed round")

				if idle {
					// With ingest idle the floor cannot advance, yet the very
					// next fold must finish the job — not no-op forever.
					if _, err := s.Fold(); err != nil {
						t.Fatal(err)
					}
					if got := s.VersionCount(); got != 0 {
						t.Fatalf("%d entries still resident after the idle-floor fold", got)
					}
					check("after the idle-floor fold")
					if got, phys := s.ColdRecords(), physicalRecords(s, kv); got != phys {
						t.Fatalf("ColdRecords = %d after the idle-floor fold, %d part-0 records on disk", got, phys)
					}
				}
				round("r3-")
				if _, err := s.Fold(); err != nil {
					t.Fatal(err)
				}
				check("after the next round")
				if got, phys := s.ColdRecords(), physicalRecords(s, kv); got != phys || phys != int64(len(model)) {
					t.Fatalf("ColdRecords = %d, %d part-0 records on disk, %d live keys", got, phys, len(model))
				}
				if got := s.StoreStats().Cold.FoldErrors; got != 1 {
					t.Fatalf("FoldErrors = %d at the end, want 1", got)
				}

				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				s = openCold(t, kv, Options{})
				st := s.StoreStats().Cold
				if !st.CleanOpen || st.RecoveryScanned != 0 {
					t.Fatalf("reopen after completed rounds: CleanOpen = %v, RecoveryScanned = %d", st.CleanOpen, st.RecoveryScanned)
				}
				if got, phys := s.ColdRecords(), physicalRecords(s, kv); got != phys {
					t.Fatalf("after reopen ColdRecords = %d, %d part-0 records on disk: m/done vouched for a wrong count", got, phys)
				}
				check("after reopen")
			})
		}
	}
}

// TestColdPinBlocksFold: the fold floor respects pinned snapshots, so a
// pinned epoch's view can never be folded out from under it half-way.
func TestColdPinBlocksFold(t *testing.T) {
	dir := t.TempDir()
	kv := openKV(t, dir)
	defer kv.Close()
	s := openCold(t, kv, Options{})

	publishKV(t, s, map[string]string{"x": "1"})
	sn := s.Acquire()
	publishKV(t, s, map[string]string{"x": "2"})
	if _, err := s.Fold(); err != nil {
		t.Fatal(err)
	}
	if wm := s.StoreStats().Cold.Watermark; wm != sn.Epoch() {
		t.Fatalf("fold watermark = %d, want pin floor %d", wm, sn.Epoch())
	}
	if v, _ := sn.Get("x"); string(v) != "1" {
		t.Fatalf("pinned snapshot read %q mid-fold, want 1", v)
	}
	sn.Release()
	if _, err := s.Fold(); err != nil {
		t.Fatal(err)
	}
	if wm := s.StoreStats().Cold.Watermark; wm != s.Watermark() {
		t.Fatalf("post-release fold watermark = %d, want %d", wm, s.Watermark())
	}
	sn2 := s.Acquire()
	defer sn2.Release()
	if v, _ := sn2.Get("x"); string(v) != "2" {
		t.Fatalf("Get(x) = %q after folds, want 2", v)
	}
}

// TestColdMultiPartValues: values beyond one kvstore entry round-trip
// through fold, fallthrough reads, cleanup, and restart.
func TestColdMultiPartValues(t *testing.T) {
	dir := t.TempDir()
	kv := openKV(t, dir)
	defer kv.Close()
	s := openCold(t, kv, Options{})

	sizes := []int{0, 1, 100, 900, 1024, 5000, 40000}
	want := map[string][]byte{}
	for _, n := range sizes {
		val := bytes.Repeat([]byte{byte(n % 251)}, n)
		for i := range val {
			val[i] = byte(i * 31)
		}
		key := fmt.Sprintf("blob-%d", n)
		b := s.Begin()
		b.Put(key, val)
		if err := b.Publish(); err != nil {
			t.Fatal(err)
		}
		want[key] = val
	}
	if _, err := s.Fold(); err != nil {
		t.Fatal(err)
	}
	check := func(s *Store, when string) {
		sn := s.Acquire()
		defer sn.Release()
		for k, v := range want {
			got, ok := sn.Get(k)
			if !ok || !bytes.Equal(got, v) {
				t.Fatalf("%s: Get(%s) lost a %d-byte value (ok=%v got %d bytes)", when, k, len(v), ok, len(got))
			}
		}
	}
	check(s, "after fold")

	// Overwrite the big ones and fold again: cleanup must drop every old
	// part without corrupting the new version.
	for _, n := range []int{5000, 40000} {
		key := fmt.Sprintf("blob-%d", n)
		val := bytes.Repeat([]byte("New"), n/3+1)[:n]
		b := s.Begin()
		b.Put(key, val)
		if err := b.Publish(); err != nil {
			t.Fatal(err)
		}
		want[key] = val
	}
	if _, err := s.Fold(); err != nil {
		t.Fatal(err)
	}
	check(s, "after overwrite fold")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openCold(t, kv, Options{})
	check(s2, "after restart")
	if got, want := s2.ColdRecords(), int64(len(sizes)); got != want {
		t.Fatalf("cold records = %d, want %d (one logical version per key)", got, want)
	}
}

// TestColdShardCountPinnedByKeyspace: the on-disk keyspace pins its
// routing, and the one-chain layout routes by key alone: a fold writes no
// m/shards count and no shard number ahead of a record's key, so a reopen
// finds every record where the writer put it.
func TestColdShardCountPinnedByKeyspace(t *testing.T) {
	dir := t.TempDir()
	kv := openKV(t, dir)
	defer kv.Close()
	s := openCold(t, kv, Options{})
	want := map[string]string{"a": "1", "b": "2", "c": "3"}
	publishKV(t, s, want)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := kv.Get(s.cold.metaKey("shards")); err != nil || ok {
		t.Fatalf("the fold wrote %s (ok=%v err=%v)", s.cold.metaKey("shards"), ok, err)
	}
	seen := map[string]bool{}
	kv.ScanPrefix([]byte("vc/r/"), func(k, _ []byte) bool {
		key, _, _, ok := s.cold.parseRecordKey(k)
		if _, known := want[key]; !ok || !known {
			t.Errorf("record key %q does not begin with a published key", k)
		}
		seen[key] = true
		return true
	})
	if len(seen) != len(want) {
		t.Fatalf("cold tier holds keys %v, want %v", seen, want)
	}

	s2 := openCold(t, kv, Options{})
	defer s2.Close()
	sn := s2.Acquire()
	defer sn.Release()
	for k, v := range want {
		if got, ok := sn.Get(k); !ok || string(got) != v {
			t.Fatalf("Get(%s) = %q,%v after reopen", k, got, ok)
		}
	}
}

// TestColdRangeUnion: Range yields each live key exactly once across both
// tiers, newest version winning, stopping early on demand.
func TestColdRangeUnion(t *testing.T) {
	dir := t.TempDir()
	kv := openKV(t, dir)
	defer kv.Close()
	s := openCold(t, kv, Options{})

	publishKV(t, s, map[string]string{"cold-only": "c", "both": "old", "dead": "x"})
	if _, err := s.Fold(); err != nil {
		t.Fatal(err)
	}
	publishKV(t, s, map[string]string{"both": "new", "hot-only": "h"})
	b := s.Begin()
	b.Delete("dead")
	if err := b.Publish(); err != nil {
		t.Fatal(err)
	}

	sn := s.Acquire()
	defer sn.Release()
	got := map[string]string{}
	err := sn.Range(func(k string, v []byte) bool {
		if _, dup := got[k]; dup {
			t.Fatalf("Range yielded %q twice", k)
		}
		got[k] = string(v)
		return true
	})
	if err != nil {
		t.Fatalf("Range: %v", err)
	}
	want := map[string]string{"cold-only": "c", "both": "new", "hot-only": "h"}
	if len(got) != len(want) {
		t.Fatalf("Range = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Range[%q] = %q, want %q", k, got[k], v)
		}
	}
	n := 0
	if err := sn.Range(func(string, []byte) bool { n++; return false }); err != nil || n != 1 {
		t.Fatalf("early-stopped Range visited %d keys (err %v), want 1 and no error", n, err)
	}

	// A cold scan that fails is reported, not passed off as a short archive:
	// core.Open rebuilds its whole index from this walk.
	kv.Close()
	if err := sn.Range(func(string, []byte) bool { return true }); err == nil {
		t.Fatal("Range over a closed kvstore returned no error")
	}
}

// TestFoldCleanupReadFailureIsCounted: a round whose superseded-version
// cleanup cannot read a key's run has not finished its accounting, so it is
// an error and a counted one. Nothing is lost either way: the records and
// the watermark are durable before cleanup starts.
func TestFoldCleanupReadFailureIsCounted(t *testing.T) {
	kv := openKV(t, t.TempDir())
	defer kv.Close()
	s := openCold(t, kv, Options{})
	publishKV(t, s, map[string]string{"a": "1", "b": "2"})
	s.SetFoldHook(func(p FoldPoint) error {
		if p == FoldAfterWatermark {
			kv.Close()
		}
		return nil
	})
	if _, err := s.Fold(); err == nil {
		t.Fatal("Fold returned no error though its cleanup could not read the disk")
	}
	if got := s.StoreStats().Cold.FoldErrors; got != 1 {
		t.Fatalf("FoldErrors = %d, want 1", got)
	}
}

// TestFoldBoundsMemory is the deterministic half of the ISSUE 3
// acceptance: ingesting 10× the fold threshold with periodic GC keeps the
// in-memory tier bounded near the threshold while every record stays
// readable, and a restart recovers the full keyspace with zero lost
// epochs.
func TestFoldBoundsMemory(t *testing.T) {
	const threshold = foldMinEntries
	dir := t.TempDir()
	kv := openKV(t, dir)
	defer kv.Close()
	s := openCold(t, kv, Options{})

	const perBatch = 8
	total := 10 * threshold
	high := 0
	for i := 0; i < total; i += perBatch {
		b := s.BeginSized(perBatch)
		for j := i; j < i+perBatch; j++ {
			b.Put(fmt.Sprintf("page-%05d", j), []byte(fmt.Sprintf("derived-%05d", j)))
		}
		if err := b.Publish(); err != nil {
			t.Fatal(err)
		}
		if i%512 == 0 {
			s.GC()
			if n := s.VersionCount(); n > high {
				high = n
			}
		}
	}
	s.GC()
	if n := s.VersionCount(); n > high {
		high = n
	}
	// The in-memory tier's high-water must track the fold threshold, not
	// the total ingested (2× covers the between-GC accumulation window).
	if high > 2*threshold {
		t.Fatalf("in-memory high-water = %d entries for threshold %d (total %d): fold is not bounding memory", high, threshold, total)
	}
	if s.ColdRecords() == 0 {
		t.Fatal("nothing reached the cold tier")
	}

	verify := func(s *Store, when string) {
		sn := s.Acquire()
		defer sn.Release()
		for i := 0; i < total; i++ {
			k := fmt.Sprintf("page-%05d", i)
			v, ok := sn.Get(k)
			if !ok || string(v) != fmt.Sprintf("derived-%05d", i) {
				t.Fatalf("%s: record %s lost (%q,%v)", when, k, v, ok)
			}
		}
	}
	verify(s, "pre-restart")
	wm := s.Watermark()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openCold(t, kv, Options{})
	if got := s2.Watermark(); got != wm {
		t.Fatalf("restart lost epochs: watermark %d, want %d", got, wm)
	}
	if got := int(s2.ColdRecords()); got != total {
		t.Fatalf("restart recovered %d records, want %d", got, total)
	}
	verify(s2, "post-restart")
}

// TestGCFallsBackToInMemoryBelowThreshold: with little foldable data the
// periodic GC leaves it in memory — it writes nothing at all, the chain stays
// as tiering keeps it, everything stays readable — and Close folds it.
func TestGCFallsBackToInMemoryBelowThreshold(t *testing.T) {
	dir := t.TempDir()
	kv := openKV(t, dir)
	defer kv.Close()
	s := openCold(t, kv, Options{})

	for i := 0; i < 50; i++ {
		publishKV(t, s, map[string]string{"k": fmt.Sprintf("v%d", i)})
	}
	commits := kv.Stats().Commits
	if n := s.GC(); n != 0 {
		t.Fatalf("GC below the threshold reclaimed %d entries", n)
	}
	if got := kv.Stats().Commits; got != commits || s.ColdRecords() != 0 {
		t.Fatalf("GC below the threshold wrote to disk: %d commits, %d cold records", got-commits, s.ColdRecords())
	}
	if st := s.StoreStats(); st.Layers > depthBound(50) || st.Entries == 0 {
		t.Fatalf("after GC: %d layers (bound %d), %d entries resident", st.Layers, depthBound(50), st.Entries)
	}
	sn := s.Acquire()
	if v, _ := sn.Get("k"); string(v) != "v49" {
		t.Fatalf("Get(k) = %q, want v49", v)
	}
	sn.Release()

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.VersionCount() != 0 || s.ColdRecords() != 1 {
		t.Fatalf("after Close: %d versions resident, %d cold records; want 0 and 1", s.VersionCount(), s.ColdRecords())
	}
	sn2 := openCold(t, kv, Options{}).Acquire()
	defer sn2.Release()
	if v, _ := sn2.Get("k"); string(v) != "v49" {
		t.Fatalf("after reopen Get(k) = %q, want v49", v)
	}
}

// TestColdKeyTooLongPanics: cold-backed stores reject keys the disk
// codec cannot frame, at Put time.
func TestColdKeyTooLongPanics(t *testing.T) {
	dir := t.TempDir()
	kv := openKV(t, dir)
	defer kv.Close()
	s := openCold(t, kv, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("oversized key accepted into a disk-backed store")
		}
	}()
	b := s.Begin()
	b.Put(strings.Repeat("x", MaxColdKeyLen+1), []byte("v"))
}
