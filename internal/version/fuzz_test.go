package version

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memex/internal/kvstore"
)

// This file is the ISSUE 3 property suite for the hot→cold fallthrough:
// under arbitrary interleavings of Publish / Acquire / Fold (and
// out-of-order, aborted, multi-batch publishes), a pinned snapshot must
// always return the newest record at or below its epoch — whether that
// record lives in an in-memory chain or on disk — and the same must hold
// after a close/reopen. A history model (per key, every published version
// with its epoch) is the oracle.

// modelVer is one published version in the oracle.
type modelVer struct {
	epoch   uint64
	val     []byte
	deleted bool
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
	if best == nil || best.deleted {
		return nil, false
	}
	return best.val, true
}

// liveKeys returns the sorted live key set at epoch.
func (o oracle) liveKeys(epoch uint64) []string {
	var keys []string
	for k := range o {
		if _, ok := o.lookup(k, epoch); ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// verifySnapshot checks every model key (hot or cold) plus the full Keys
// enumeration against the oracle at the snapshot's epoch.
func verifySnapshot(t *testing.T, sn *Snapshot, o oracle, when string) {
	t.Helper()
	e := sn.Epoch()
	for k := range o {
		want, wantOK := o.lookup(k, e)
		got, ok := sn.Get(k)
		if ok != wantOK || !bytes.Equal(got, want) {
			t.Fatalf("%s: Get(%q) at epoch %d = %q,%v; oracle says %q,%v", when, k, e, got, ok, want, wantOK)
		}
		got2, ok2 := sn.Get(k)
		if ok2 != ok || !bytes.Equal(got2, got) {
			t.Fatalf("%s: non-repeatable read of %q at epoch %d", when, k, e)
		}
	}
	if want, got := o.liveKeys(e), sn.Keys(); fmt.Sprint(want) != fmt.Sprint(got) {
		t.Fatalf("%s: Keys at epoch %d = %v, oracle says %v", when, e, got, want)
	}
}

// FuzzHotColdFallthrough drives the store through an op-coded script of
// staged writes, out-of-order publishes, aborts, folds and pinned
// verifications, then restarts it and verifies the recovered keyspace.
// Run the checked-in seeds under -race via plain `go test`; CI adds a
// `-fuzz` smoke on top.
func FuzzHotColdFallthrough(f *testing.F) {
	// Ops are (opcode, arg) byte pairs; opcode%8 selects put / delete /
	// open-batch / publish / abort / fold / fold / verify (two opcodes fold,
	// so the checked-in corpus keeps its scripts crossing hot→cold).
	f.Add([]byte{0, 1, 0, 2, 3, 0, 7, 0, 5, 0, 7, 0})                               // put put publish verify fold verify
	f.Add([]byte{0, 5, 1, 5, 3, 0, 5, 0, 0, 5, 3, 0, 6, 0, 7, 0})                   // tombstone over cold, republish, fold
	f.Add([]byte{2, 0, 0, 3, 2, 0, 0, 7, 3, 1, 7, 0, 3, 0, 5, 0, 7, 0})             // out-of-order publish across the fold
	f.Add([]byte{2, 0, 0, 4, 2, 0, 0, 8, 4, 0, 3, 0, 5, 0, 7, 0, 6, 0})             // abort leaves a watermark gap, then fold
	f.Add([]byte{0, 9, 3, 0, 5, 0, 1, 9, 3, 0, 7, 0, 5, 0, 7, 0, 0, 9, 3, 0, 7, 0}) // delete-refill churn on one key
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			t.Skip("script cap: beyond this length adds interleavings, not coverage")
		}
		kv, err := kvstore.Open(filepath.Join(t.TempDir(), "kv"), kvstore.Options{Sync: kvstore.SyncNever})
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
			pending []modelVer
			keys    []string
		}
		var open []*openBatch
		key := func(arg byte) string { return fmt.Sprintf("k%02d", arg%16) }
		ensure := func() *openBatch {
			if len(open) == 0 {
				open = append(open, &openBatch{b: s.Begin()})
			}
			return open[len(open)-1]
		}
		publish := func(i int) {
			ob := open[i]
			open = append(open[:i], open[i+1:]...)
			// Record to the oracle before Publish: visibility is governed
			// by snapshot epochs, and nothing pins this epoch until the
			// watermark covers it — after Publish returns.
			for j, k := range ob.keys {
				o[k] = append(o[k], ob.pending[j])
			}
			if err := ob.b.Publish(); err != nil {
				t.Fatalf("Publish: %v", err)
			}
		}

		for pc := 0; pc+1 < len(ops); pc += 2 {
			op, arg := ops[pc]%8, ops[pc+1]
			switch op {
			case 0: // stage a put in the newest open batch
				ob := ensure()
				k := key(arg)
				v := []byte(fmt.Sprintf("%s@%d.%d", k, ob.b.Epoch(), arg))
				ob.b.Put(k, v) //memexvet:ignore epochbatch the fuzz driver interleaves ops on whatever batch ensure() hands back; the model oracle checks the outcome
				ob.keys = append(ob.keys, k)
				ob.pending = append(ob.pending, modelVer{epoch: ob.b.Epoch(), val: v})
			case 1: // stage a delete
				ob := ensure()
				k := key(arg)
				ob.b.Delete(k) //memexvet:ignore epochbatch same driver shape: ensure() only returns still-open batches
				ob.keys = append(ob.keys, k)
				ob.pending = append(ob.pending, modelVer{epoch: ob.b.Epoch(), deleted: true})
			case 2: // open another concurrent batch
				if len(open) < 3 {
					open = append(open, &openBatch{b: s.Begin()})
				}
			case 3: // publish some open batch (arg picks it → out of order)
				if len(open) > 0 {
					publish(int(arg) % len(open))
				}
			case 4: // abort some open batch
				if len(open) > 0 {
					i := int(arg) % len(open)
					open[i].b.Abort()
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

		// Drain: abort stragglers (publishing them would be fine too; an
		// abort exercises the watermark-gap path more), verify, restart,
		// verify again at the recovered watermark.
		for _, ob := range open {
			ob.b.Abort()
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
		if got, want := s2.Watermark(), s.Watermark(); got != want {
			t.Fatalf("restart watermark = %d, want %d", got, want)
		}
		sn2 := s2.Acquire()
		verifySnapshot(t, sn2, o, "after restart")
		sn2.Release()
	})
}

// TestPropertyConcurrentHotColdInterleavings runs real concurrency over
// the same oracle: two publishers (racing epochs), a fold/GC loop, and
// pinned readers verifying newest-at-or-below-epoch for every sampled
// key, hot or cold. CI runs this under -race.
func TestPropertyConcurrentHotColdInterleavings(t *testing.T) {
	kv, err := kvstore.Open(filepath.Join(t.TempDir(), "kv"), kvstore.Options{Sync: kvstore.SyncNever})
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
	var mu sync.Mutex // guards the oracle and orders model-record vs Publish
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
				b := s.Begin()
				n := 1 + rng.Intn(4)
				var pend []modelVer
				var pkeys []string
				for j := 0; j < n; j++ {
					k := fmt.Sprintf("pk%02d", rng.Intn(keys))
					if rng.Intn(8) == 0 {
						b.Delete(k)
						pend = append(pend, modelVer{epoch: b.Epoch(), deleted: true})
					} else {
						v := []byte(fmt.Sprintf("%s@%d", k, b.Epoch()))
						b.Put(k, v)
						pend = append(pend, modelVer{epoch: b.Epoch(), val: v})
					}
					pkeys = append(pkeys, k)
				}
				mu.Lock()
				for j, k := range pkeys {
					o[k] = append(o[k], pend[j])
				}
				err := b.Publish()
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

	// Publishers allocate exactly 2*rounds epochs and publish them all, so
	// the watermark reaching that count means they are done; then stop the
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
