package version

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memex/internal/kvstore"
)

// This file is the ISSUE 3 property suite for the hot→cold fallthrough:
// under arbitrary interleavings of Publish / Acquire / Fold (and batches
// held open across other publishes, or dropped unpublished), a pinned
// snapshot must always return the newest record at or below its epoch —
// whether that record lives in an in-memory chain or on disk — and the
// same must hold after a close/reopen. A history model (per key, every
// published version with its epoch) is the oracle.

// modelVer is one published version in the oracle.
type modelVer struct {
	epoch uint64
	val   []byte
}

type oracle map[string][]modelVer

// lookup returns the newest version at or below epoch. Ties (one batch
// staging the same key twice) resolve to the later-appended entry,
// matching Batch semantics: the last staged write wins.
func (o oracle) lookup(key string, epoch uint64) ([]byte, bool) {
	var best *modelVer
	vs := o[key]
	for i := range vs {
		if vs[i].epoch <= epoch && (best == nil || vs[i].epoch >= best.epoch) {
			best = &vs[i]
		}
	}
	if best == nil {
		return nil, false
	}
	return best.val, true
}

// verifySnapshot checks every model key (hot or cold) plus the full Range
// enumeration against the oracle at the snapshot's epoch.
func verifySnapshot(t *testing.T, sn *Snapshot, o oracle, when string) {
	t.Helper()
	e := sn.Epoch()
	all := make(map[string]string)
	for k := range o {
		want, wantOK := o.lookup(k, e)
		if wantOK {
			all[k] = string(want)
		}
		got, ok := sn.Get(k)
		if ok != wantOK || !bytes.Equal(got, want) {
			t.Fatalf("%s: Get(%q) at epoch %d = %q,%v; oracle says %q,%v", when, k, e, got, ok, want, wantOK)
		}
		got2, ok2 := sn.Get(k)
		if ok2 != ok || !bytes.Equal(got2, got) {
			t.Fatalf("%s: non-repeatable read of %q at epoch %d", when, k, e)
		}
	}
	if got := rangeAll(t, sn); fmt.Sprint(got) != fmt.Sprint(all) {
		t.Fatalf("%s: Range at epoch %d = %v, oracle says %v", when, e, got, all)
	}
}

// FuzzHotColdFallthrough drives the store through an op-coded script of
// staged writes, publishes, dropped batches, folds and pinned
// verifications, then restarts it and verifies the recovered keyspace. A
// batch takes its epoch when it publishes, so the model records each
// version at the epoch Publish took (the watermark after it), and the watermark must equal the
// number of non-empty publishes, before the restart and after it.
// Run the checked-in seeds under -race via plain `go test`; CI adds a
// `-fuzz` smoke on top.
func FuzzHotColdFallthrough(f *testing.F) {
	// Ops are (opcode, arg) byte pairs; opcode%8 selects put / put /
	// open-batch / publish / drop / fold / fold / verify (two opcodes put
	// and two fold, so the checked-in corpus keeps its scripts writing and
	// crossing hot→cold).
	f.Add([]byte{0, 1, 0, 2, 3, 0, 7, 0, 5, 0, 7, 0})                               // put put publish verify fold verify
	f.Add([]byte{0, 5, 1, 5, 3, 0, 5, 0, 0, 5, 3, 0, 6, 0, 7, 0})                   // overwrite over cold, republish, fold
	f.Add([]byte{2, 0, 0, 3, 2, 0, 0, 7, 3, 1, 7, 0, 3, 0, 5, 0, 7, 0})             // the later-staged batch publishes first, across the fold
	f.Add([]byte{2, 0, 0, 4, 2, 0, 0, 8, 4, 0, 3, 0, 5, 0, 7, 0, 6, 0})             // a dropped batch takes no epoch, then fold
	f.Add([]byte{0, 9, 3, 0, 5, 0, 1, 9, 3, 0, 7, 0, 5, 0, 7, 0, 0, 9, 3, 0, 7, 0}) // rewrite churn on one key
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			t.Skip("script cap: beyond this length adds interleavings, not coverage")
		}
		kv, err := kvstore.Open(filepath.Join(t.TempDir(), "kv"), kvstore.Options{Sync: kvstore.SyncGroup})
		if err != nil {
			t.Fatal(err)
		}
		defer kv.Close()
		s, err := Open(kv, "vc/", Options{})
		if err != nil {
			t.Fatal(err)
		}

		o := oracle{}
		type openBatch struct {
			b       *Batch
			serial  int
			pending []modelVer
			keys    []string
		}
		var open []*openBatch
		begun, published := 0, uint64(0)
		begin := func() {
			begun++
			open = append(open, &openBatch{b: s.BeginSized(0), serial: begun})
		}
		key := func(arg byte) string { return fmt.Sprintf("k%02d", arg%16) }
		ensure := func() *openBatch {
			if len(open) == 0 {
				begin()
			}
			return open[len(open)-1]
		}
		publish := func(i int) {
			ob := open[i]
			open = append(open[:i], open[i+1:]...)
			if err := ob.b.Publish(); err != nil {
				t.Fatalf("Publish: %v", err)
			}
			if len(ob.keys) == 0 {
				return // empty: no epoch taken
			}
			published++
			for j, k := range ob.keys {
				v := ob.pending[j]
				v.epoch = s.Watermark()
				o[k] = append(o[k], v)
			}
		}

		for pc := 0; pc+1 < len(ops); pc += 2 {
			op, arg := ops[pc]%8, ops[pc+1]
			switch op {
			case 0, 1: // stage a put in the newest open batch
				ob := ensure()
				k := key(arg)
				v := []byte(fmt.Sprintf("%s@%d.%d", k, ob.serial, arg))
				ob.b.Put(k, v) //memexvet:ignore epochbatch the fuzz driver interleaves ops on whatever batch ensure() hands back; the model oracle checks the outcome
				ob.keys = append(ob.keys, k)
				ob.pending = append(ob.pending, modelVer{val: v})
			case 2: // open another staging batch
				if len(open) < 3 {
					begin()
				}
			case 3: // publish some open batch (arg picks it, not necessarily the oldest)
				if len(open) > 0 {
					publish(int(arg) % len(open))
				}
			case 4: // drop some open batch unpublished
				if len(open) > 0 {
					i := int(arg) % len(open)
					open = append(open[:i], open[i+1:]...)
				}
			case 5, 6: // fold to disk
				if _, err := s.Fold(); err != nil {
					t.Fatalf("Fold: %v", err)
				}
			case 7: // pin and verify against the oracle
				sn := s.Acquire()
				verifySnapshot(t, sn, o, "mid-script")
				sn.Release()
			}
		}

		// Drain: drop the stragglers, check the watermark counts the
		// non-empty publishes, verify, restart, verify again at the
		// recovered watermark.
		if got := s.Watermark(); got != published {
			t.Fatalf("watermark = %d after %d non-empty publishes", got, published)
		}
		sn := s.Acquire()
		verifySnapshot(t, sn, o, "final")
		sn.Release()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(kv, "vc/", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := s2.Watermark(); got != published {
			t.Fatalf("restart watermark = %d, want %d", got, published)
		}
		sn2 := s2.Acquire()
		verifySnapshot(t, sn2, o, "after restart")
		sn2.Release()
	})
}

// TestPropertyConcurrentHotColdInterleavings runs real concurrency over
// the same oracle: two publishers, a fold/GC loop, and pinned readers
// verifying newest-at-or-below-epoch for every sampled key, hot or cold.
// The publishers take turns under one lock held across stage, Publish and
// the oracle update, as the engine's link-index lock serialises its one
// producer; a reader that pinned an epoch waits on the same lock before
// it asks the oracle, so the oracle already holds every version it can
// see. CI runs this under -race.
func TestPropertyConcurrentHotColdInterleavings(t *testing.T) {
	kv, err := kvstore.Open(filepath.Join(t.TempDir(), "kv"), kvstore.Options{Sync: kvstore.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	s, err := Open(kv, "vc/", Options{})
	if err != nil {
		t.Fatal(err)
	}

	const keys = 32
	const rounds = 400
	var mu sync.Mutex // the producer lock; also guards the oracle
	o := oracle{}

	var wg sync.WaitGroup
	var failed atomic.Bool
	errCh := make(chan error, 8)
	report := func(err error) {
		failed.Store(true)
		select {
		case errCh <- err:
		default:
		}
	}
	done := make(chan struct{})

	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + p)))
			for i := 0; i < rounds; i++ {
				mu.Lock()
				b := s.BeginSized(0)
				n := 1 + rng.Intn(4)
				var pend []modelVer
				var pkeys []string
				for j := 0; j < n; j++ {
					k := fmt.Sprintf("pk%02d", rng.Intn(keys))
					v := []byte(fmt.Sprintf("%s@p%d.%d", k, p, i))
					b.Put(k, v)
					pend = append(pend, modelVer{val: v})
					pkeys = append(pkeys, k)
				}
				err := b.Publish()
				for j, k := range pkeys {
					// Publish took the epoch now the watermark: the other
					// publisher waits on mu, and folds move no watermark.
					pend[j].epoch = s.Watermark()
					o[k] = append(o[k], pend[j])
				}
				mu.Unlock()
				if err != nil {
					report(fmt.Errorf("publish: %w", err))
					return
				}
			}
		}(p)
	}

	wg.Add(1)
	go func() { // fold/GC churn
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if i%2 == 0 {
				if _, err := s.Fold(); err != nil {
					report(fmt.Errorf("fold: %w", err))
					return
				}
			} else {
				s.GC()
			}
		}
	}()

	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				sn := s.Acquire()
				e := sn.Epoch()
				for probe := 0; probe < 8; probe++ {
					k := fmt.Sprintf("pk%02d", rng.Intn(keys))
					mu.Lock()
					want, wantOK := o.lookup(k, e)
					mu.Unlock()
					got, ok := sn.Get(k)
					if ok != wantOK || !bytes.Equal(got, want) {
						report(fmt.Errorf("Get(%q) at epoch %d = %q,%v; oracle says %q,%v", k, e, got, ok, want, wantOK))
						sn.Release()
						return
					}
					got2, ok2 := sn.Get(k)
					if ok2 != ok || !bytes.Equal(got2, got) {
						report(fmt.Errorf("non-repeatable read of %q at epoch %d", k, e))
						sn.Release()
						return
					}
				}
				sn.Release()
			}
		}(r)
	}

	// Publishers publish exactly 2*rounds non-empty batches, so the
	// watermark reaching that count means they are done; then stop the
	// churn and readers.
	for s.Watermark() < uint64(2*rounds) && !failed.Load() {
		time.Sleep(time.Millisecond)
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Quiesce, fold everything, restart, and verify the whole keyspace.
	if _, err := s.Fold(); err != nil {
		t.Fatal(err)
	}
	sn := s.Acquire()
	verifySnapshot(t, sn, o, "quiesced")
	sn.Release()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(kv, "vc/", Options{})
	if err != nil {
		t.Fatal(err)
	}
	sn2 := s2.Acquire()
	verifySnapshot(t, sn2, o, "after restart")
	sn2.Release()
}
