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

// openKV opens the test kvstore for dir (SyncGroup: the crash model under
// test is the version layer's fold contract, not fsync behaviour —
// TestFoldCommitCutAtEveryRecord and kvstore's own WAL tests cover torn
// files).
func openKV(t *testing.T, dir string) *kvstore.Store {
	t.Helper()
	kv, err := kvstore.Open(filepath.Join(dir, "kv"), kvstore.Options{Sync: kvstore.SyncGroup})
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
	b := s.BeginSized(0)
	for k, v := range kvs {
		b.Put(k, []byte(v))
	}
	if err := b.Publish(); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	return s.Watermark()
}

func TestColdFoldAndFallthrough(t *testing.T) {
	dir := t.TempDir()
	kv := openKV(t, dir)
	defer kv.Close()
	s := openCold(t, kv, Options{})

	for i := 0; i < 100; i++ {
		publishKV(t, s, map[string]string{fmt.Sprintf("k%03d", i): fmt.Sprintf("v%03d", i)})
	}
	// Overwrite one before folding.
	publishKV(t, s, map[string]string{"k007": "v007-new"})

	n, err := s.Fold()
	if err != nil {
		t.Fatalf("Fold: %v", err)
	}
	if n == 0 {
		t.Fatal("Fold moved nothing")
	}
	if got := s.StoreStats().Entries; got != 0 {
		t.Fatalf("in-memory versions after full fold = %d, want 0", got)
	}
	if s.StoreStats().Cold.Records == 0 {
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
		if !ok || string(v) != want {
			t.Fatalf("Get(%s) = %q,%v after fold, want %q", key, v, ok, want)
		}
	}
	// One record per key on disk, the overwritten one included.
	if got, phys := s.StoreStats().Cold.Records, physicalRecords(s, kv); got != 100 || phys != 100 {
		t.Fatalf("Cold.Records = %d, %d on disk; want 100", got, phys)
	}
}

// TestColdHotShadowsCold: an in-memory write for a key that already lives
// on disk must win for every new snapshot.
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

	sn := s.Acquire()
	if v, ok := sn.Get("a"); !ok || string(v) != "new" {
		t.Fatalf("Get(a) = %q,%v, want fresh in-memory value", v, ok)
	}
	if got := rangeAll(t, sn); fmt.Sprint(got) != "map[a:new b:keep]" {
		t.Fatalf("Range = %v, want a:new b:keep", got)
	}
	sn.Release()

	// And the shadowing must survive the next fold + a restart. The fold
	// writes a's new version over its old one: a's new version and b are
	// left.
	if _, err := s.Fold(); err != nil {
		t.Fatal(err)
	}
	if got := s.StoreStats().Entries; got != 0 {
		t.Fatalf("%d versions still resident after the fold", got)
	}
	if got, phys := s.StoreStats().Cold.Records, physicalRecords(s, kv); got != 2 || phys != 2 {
		t.Fatalf("Cold.Records = %d, %d on disk; want 2 (a's old version under the new one)", got, phys)
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
	if v, ok := sn2.Get("b"); !ok || string(v) != "keep" {
		t.Fatalf("after restart Get(b) = %q,%v", v, ok)
	}
}

// TestCrashRecoveryMidFold: kill the store mid-fold — before the round's
// commit, or after it and before its splice — reopen, and assert that the
// recovered watermark is the previous round's or this one's, that every
// published epoch at or below it is readable, that nothing above it leaks,
// and that life goes on above it. (A crash inside the commit is
// TestFoldCommitCutAtEveryRecord.)
func TestCrashRecoveryMidFold(t *testing.T) {
	errCrash := errors.New("injected crash")
	for _, point := range []FoldPoint{FoldBeforeCommit, FoldAfterCommit} {
		t.Run(fmt.Sprintf("point=%d", point), func(t *testing.T) {
			dir := t.TempDir()
			kv := openKV(t, dir)
			defer kv.Close()
			s := openCold(t, kv, Options{})

			// Round 1: establish a durable base, including keys the crashed
			// round will overwrite.
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
			// keyspace.
			s2 := openCold(t, kv, Options{})
			wantWM := wm1
			if point == FoldAfterCommit {
				wantWM = wm2
				// The round committed, so round 2 is durable.
				for k, v := range round2 {
					model[k] = v
				}
			}
			if got := s2.Watermark(); got != wantWM {
				t.Fatalf("recovered watermark = %d, want %d", got, wantWM)
			}
			if got := s2.StoreStats().Cold.Records; got != int64(len(model)) {
				t.Fatalf("recovered Cold.Records = %d, want %d", got, len(model))
			}
			sn := s2.Acquire()
			for k, v := range model {
				got, ok := sn.Get(k)
				if !ok || string(got) != v {
					t.Fatalf("epoch ≤ watermark lost: Get(%s) = %q,%v, want %q", k, got, ok, v)
				}
			}
			// No epoch above the watermark leaks: a key only round 2 wrote
			// reads as absent unless the round committed.
			for k := range round2 {
				if got, ok := sn.Get(k); ok != (model[k] != "") {
					t.Fatalf("epoch > watermark leaked: Get(%s) = %q,%v", k, got, ok)
				}
			}
			// Release the verification pin — a pinned snapshot would
			// (correctly) hold the next fold's floor at the old watermark.
			sn.Release()

			// Life goes on: epochs resume above the watermark, publish and
			// fold work, and a clean restart sees everything.
			if e := publishKV(t, s2, map[string]string{"post": "crash"}); e != wantWM+1 {
				t.Fatalf("resumed epoch = %d, want %d", e, wantWM+1)
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

// physicalRecords counts the part-0 records on disk: what Cold.Records claims
// to know without looking.
// rangeAll collects what the snapshot's Range yields, failing on a key
// yielded twice.
func rangeAll(t *testing.T, sn *Snapshot) map[string]string {
	t.Helper()
	got := make(map[string]string)
	if err := sn.Range(func(k string, v []byte) bool {
		if _, dup := got[k]; dup {
			t.Fatalf("Range yielded %q twice", k)
		}
		got[k] = string(v)
		return true
	}); err != nil {
		t.Fatalf("Range: %v", err)
	}
	return got
}

// kvKeys counts the keys in kv.
func kvKeys(t *testing.T, kv *kvstore.Store) int {
	t.Helper()
	n := 0
	if err := kv.Scan(nil, nil, func(_, _ []byte) bool { n++; return true }); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return n
}

func physicalRecords(s *Store, kv *kvstore.Store) int64 {
	n := int64(0)
	kv.ScanPrefix([]byte("vc/r/"), func(k, _ []byte) bool {
		if _, part, ok := s.cold.parseRecordKey(k); ok && part == 0 {
			n++
		}
		return true
	})
	return n
}

// TestColdRecordsSurviveAbandonedSplice: a fold that fails — before its
// commit or after it — abandons its splice. The data is never at risk: the
// layers stay resident and shadow whatever the round wrote. What is at risk
// is the bookkeeping: the next round writes the same keys again, over
// records that may already be on disk, and m/wm carries the key count to
// every later reopen. So: the failure is
// counted where an operator sees it, every key reads its newest value
// throughout, the next fold — with ingest idle or after republishes —
// reclaims the memory, and Cold.Records equals a physical count, in process
// and after a reopen.
func TestColdRecordsSurviveAbandonedSplice(t *testing.T) {
	errInjected := errors.New("injected fold failure")
	for _, point := range []FoldPoint{FoldBeforeCommit, FoldAfterCommit} {
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
				if s.StoreStats().Entries == 0 {
					t.Fatal("the failed round spliced its layers out")
				}
				check("after the failed round")

				if idle {
					// With ingest idle the floor cannot advance, yet the very
					// next fold must finish the job — not no-op forever.
					if _, err := s.Fold(); err != nil {
						t.Fatal(err)
					}
					if got := s.StoreStats().Entries; got != 0 {
						t.Fatalf("%d entries still resident after the idle-floor fold", got)
					}
					check("after the idle-floor fold")
					if got, phys := s.StoreStats().Cold.Records, physicalRecords(s, kv); got != phys {
						t.Fatalf("Cold.Records = %d after the idle-floor fold, %d part-0 records on disk", got, phys)
					}
				}
				round("r3-")
				if _, err := s.Fold(); err != nil {
					t.Fatal(err)
				}
				check("after the next round")
				if got, phys := s.StoreStats().Cold.Records, physicalRecords(s, kv); got != phys || phys != int64(len(model)) {
					t.Fatalf("Cold.Records = %d, %d part-0 records on disk, %d live keys", got, phys, len(model))
				}
				if got := s.StoreStats().Cold.FoldErrors; got != 1 {
					t.Fatalf("FoldErrors = %d at the end, want 1", got)
				}

				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				s = openCold(t, kv, Options{})
				if got, phys := s.StoreStats().Cold.Records, physicalRecords(s, kv); got != phys {
					t.Fatalf("after reopen Cold.Records = %d, %d part-0 records on disk: m/wm carried a wrong count", got, phys)
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
// through fold, fallthrough reads, rewrites that change a key's part count,
// and restart.
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
		b := s.BeginSized(0)
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

	// Overwrite the big ones — one keeps its size, one shrinks to a single
	// part, one grows — and fold again: the round must delete every part the
	// new value no longer uses without corrupting it.
	for n, size := range map[int]int{5000: 5000, 40000: 900, 900: 20000} {
		key := fmt.Sprintf("blob-%d", n)
		val := bytes.Repeat([]byte("New"), size/3+1)[:size]
		b := s.BeginSized(0)
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
	parts := 0
	for k, v := range want {
		parts += max(1, (len(v)+s.cold.partPayload(k)-1)/s.cold.partPayload(k))
	}
	if got := kvKeys(t, kv); got != parts+1 {
		t.Fatalf("kvstore holds %d keys, want %d parts and m/wm", got, parts)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openCold(t, kv, Options{})
	check(s2, "after restart")
	if got, want := s2.StoreStats().Cold.Records, int64(len(sizes)); got != want {
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
		key, _, ok := s.cold.parseRecordKey(k)
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

// TestColdRangeUnion: Range yields each key exactly once across both
// tiers, newest version winning, stopping early on demand.
func TestColdRangeUnion(t *testing.T) {
	dir := t.TempDir()
	kv := openKV(t, dir)
	defer kv.Close()
	s := openCold(t, kv, Options{})

	publishKV(t, s, map[string]string{"cold-only": "c", "both": "old"})
	if _, err := s.Fold(); err != nil {
		t.Fatal(err)
	}
	publishKV(t, s, map[string]string{"both": "new", "hot-only": "h"})

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
			if n := s.StoreStats().Entries; n > high {
				high = n
			}
		}
	}
	s.GC()
	if n := s.StoreStats().Entries; n > high {
		high = n
	}
	// The in-memory tier's high-water must track the fold threshold, not
	// the total ingested (2× covers the between-GC accumulation window).
	if high > 2*threshold {
		t.Fatalf("in-memory high-water = %d entries for threshold %d (total %d): fold is not bounding memory", high, threshold, total)
	}
	if s.StoreStats().Cold.Records == 0 {
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
	if got := int(s2.StoreStats().Cold.Records); got != total {
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
	if got := kv.Stats().Commits; got != commits || s.StoreStats().Cold.Records != 0 {
		t.Fatalf("GC below the threshold wrote to disk: %d commits, %d cold records", got-commits, s.StoreStats().Cold.Records)
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
	if s.StoreStats().Entries != 0 || s.StoreStats().Cold.Records != 1 {
		t.Fatalf("after Close: %d versions resident, %d cold records; want 0 and 1", s.StoreStats().Entries, s.StoreStats().Cold.Records)
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
	b := s.BeginSized(0)
	b.Put(strings.Repeat("x", MaxColdKeyLen+1), []byte("v"))
}

// TestReadReportsColdError: a cold record that cannot be read is a miss to
// Get and an error to Read, and both count it in ReadErrors. A producer
// that rewrites a record from what it read needs the difference.
func TestReadReportsColdError(t *testing.T) {
	dir := t.TempDir()
	kv := openKV(t, dir)
	defer kv.Close()
	s := openCold(t, kv, Options{})
	publishKV(t, s, map[string]string{"k": "v"})
	if _, err := s.Fold(); err != nil {
		t.Fatal(err)
	}
	// Part 0 of the record with a part count of zero.
	if err := kv.Put(s.cold.recordKey("k", 0), []byte{0}); err != nil {
		t.Fatal(err)
	}
	sn := s.Acquire()
	defer sn.Release()
	if v, ok := sn.Get("k"); ok {
		t.Fatalf("Get of an unreadable record = %q, want a miss", v)
	}
	if _, ok, err := sn.Read("k"); ok || err == nil {
		t.Fatalf("Read of an unreadable record: ok %v, err %v; want the error", ok, err)
	}
	if v, ok, err := sn.Read("absent"); ok || err != nil {
		t.Fatalf("Read of a key with no record = %q, %v, %v; want a plain miss", v, ok, err)
	}
	if got := s.StoreStats().Cold.ReadErrors; got != 2 {
		t.Fatalf("ReadErrors = %d, want 2", got)
	}
}
