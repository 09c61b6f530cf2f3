package version

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"memex/internal/kvstore"
)

// depthBound is the base-k counter's digit bound: after n publishes a
// snapshot walks at most (k-1)·(⌊log_k n⌋+1) layers.
func depthBound(n int) int {
	digits := 1
	for ; n >= tierFanout; n /= tierFanout {
		digits++
	}
	return (tierFanout - 1) * digits
}

// chainDepth counts the layers a new snapshot would walk.
func chainDepth(s *Store) int {
	depth := 0
	for l := s.current.Load().head; l != nil; l = l.next {
		depth++
	}
	return depth
}

// fetchBatch stages what one fetched page publishes: its tf/ and lnk/
// records plus an in-link record for each of six targets, most of them
// shared hub pages.
func fetchBatch(s *Store, page int) *Batch {
	b := s.BeginSized(8)
	keys := []string{fmt.Sprintf("tf/%d", page), fmt.Sprintf("lnk/%d", page)}
	for j := 0; j < 6; j++ {
		keys = append(keys, fmt.Sprintf("rinD/%d/%d", (page*7+j*13)%97, page))
	}
	for _, k := range keys {
		b.Put(k, []byte(k))
	}
	return b
}

// TestPublishBoundsChainDepth: a store whose owner never calls GC keeps
// its chain inside the counter's digit bound for the store's
// publish count, at every power of the fanout and at the end of a
// 10 000-page burst, and reads through it still find every record.
func TestPublishBoundsChainDepth(t *testing.T) {
	s := NewStore()
	const pages = 10000
	check := func(publishes int) {
		t.Helper()
		if d, bound := chainDepth(s), depthBound(publishes); d > bound {
			t.Fatalf("after %d publishes the chain is %d layers deep, bound %d", publishes, d, bound)
		}
	}
	for p := 0; p < pages; p++ {
		if err := fetchBatch(s, p).Publish(); err != nil {
			t.Fatal(err)
		}
		if p < 2*tierFanout*tierFanout || p%97 == 0 {
			check(p + 1)
		}
	}
	check(pages)
	st := s.StoreStats()
	if st.Layers > depthBound(pages) {
		t.Fatalf("StoreStats.Layers = %d after the burst, bound %d", st.Layers, depthBound(pages))
	}
	sn := s.Acquire()
	defer sn.Release()
	for p := 0; p < pages; p += 37 {
		k := fmt.Sprintf("tf/%d", p)
		if v, ok := sn.Get(k); !ok || string(v) != k {
			t.Fatalf("Get(%s) after the burst = %q, %v", k, v, ok)
		}
	}
	if _, ok := sn.Get("tf/absent"); ok {
		t.Fatal("Get of a key never written hit")
	}
}

// TestTieringDropsSupersededVersions: the merge keeps the newest version
// of a key and counts what it dropped, with no GC call.
func TestTieringDropsSupersededVersions(t *testing.T) {
	s := NewStore()
	const n = 3*tierFanout + 5
	for i := 0; i < n; i++ {
		b := s.BeginSized(0)
		b.Put("k", []byte{byte(i)})
		b.Publish()
	}
	// Three carries of 16 layers each left one version apiece.
	if got, want := s.StoreStats().Entries, 3+5; got != want {
		t.Fatalf("Entries = %d, want %d", got, want)
	}
	if got, want := s.StoreStats().GCReclaimed, uint64(3*(tierFanout-1)); got != want {
		t.Fatalf("GCReclaimed = %d, want %d", got, want)
	}
	sn := s.Acquire()
	defer sn.Release()
	if v, ok := sn.Get("k"); !ok || v[0] != byte(n-1) {
		t.Fatalf("Get = %v, %v; want [%d]", v, ok, n-1)
	}
}

// TestTieredStoreMatchesModel is the differential test for the tiered
// chain: a seeded script of puts, batches published as soon as
// they are staged or held open across other publishes, and batches
// dropped unpublished runs against the store and a naive model (key →
// every version, at the epoch Publish gave it), with snapshots pinned
// across hundreds of publishes and folds interleaved. Every live snapshot — however old, however often the chain
// under it was merged — must answer Get and Range as the model does
// at its epoch, and so must the store after Close → Open.
func TestTieredStoreMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
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
			type pending struct {
				b    *Batch
				keys []string
				vers []modelVer
			}
			var open []*pending
			var pins []*Snapshot
			begun := 0
			begin := func() *pending {
				p := &pending{b: s.BeginSized(0)}
				begun++
				for n := 1 + rng.Intn(3); n > 0; n-- {
					k := fmt.Sprintf("k%02d", rng.Intn(40))
					v := []byte(fmt.Sprintf("%s@batch%d", k, begun))
					p.b.Put(k, v)
					p.vers = append(p.vers, modelVer{val: v})
					p.keys = append(p.keys, k)
				}
				return p
			}
			finish := func(p *pending) {
				if rng.Intn(12) == 0 {
					return // dropped unpublished: no epoch, no write
				}
				if err := p.b.Publish(); err != nil {
					t.Fatal(err)
				}
				for i, k := range p.keys {
					v := p.vers[i]
					v.epoch = s.Watermark()
					o[k] = append(o[k], v)
				}
			}
			verifyAll := func(when string) {
				t.Helper()
				for _, sn := range pins {
					verifySnapshot(t, sn, o, when)
				}
				sn := s.Acquire()
				verifySnapshot(t, sn, o, when)
				sn.Release()
			}
			// verifyDurable checks the durable watermark's promise without a
			// crash: what a reopen at it would read is on disk now, pins or
			// no pins.
			verifyDurable := func(when string) {
				t.Helper()
				wm := s.ColdWatermark()
				for k := range o {
					got, ok, err := s.cold.get(k)
					if err != nil {
						t.Fatalf("%s: read %q: %v", when, k, err)
					}
					if want, wantOK := o.lookup(k, wm); ok != wantOK || !bytes.Equal(got, want) {
						t.Fatalf("%s: disk holds %q,%v for %q at the durable watermark %d; oracle says %q,%v", when, got, ok, k, wm, want, wantOK)
					}
				}
			}
			const steps = 3000
			for step := 0; step < steps; step++ {
				switch r := rng.Intn(100); {
				case r < 70: // in-order publish
					finish(begin())
				case r < 80: // stage a batch and hold it open across later publishes
					open = append(open, begin())
				case r < 90: // publish or drop a held batch, not necessarily the oldest
					if len(open) > 0 {
						i := rng.Intn(len(open))
						finish(open[i])
						open = append(open[:i], open[i+1:]...)
					}
				case r < 93: // pin; held across hundreds of publishes
					if len(pins) < 6 {
						pins = append(pins, s.Acquire())
					}
				case r < 95:
					if len(pins) > 0 {
						i := rng.Intn(len(pins))
						pins[i].Release()
						pins = append(pins[:i], pins[i+1:]...)
					}
				default:
					if _, err := s.Fold(); err != nil {
						t.Fatal(err)
					}
					verifyDurable(fmt.Sprint("fold at step ", step))
				}
				if step%150 == 0 {
					verifyAll(fmt.Sprint("step ", step))
				}
			}
			for _, p := range open {
				finish(p)
			}
			verifyAll("drained")
			for _, sn := range pins {
				sn.Release()
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if n := s.StoreStats().Entries; n != 0 {
				t.Fatalf("%d versions still resident after Close with nothing pinned", n)
			}
			s2, err := Open(kv, "vc/", Options{})
			if err != nil {
				t.Fatal(err)
			}
			sn := s2.Acquire()
			verifySnapshot(t, sn, o, "after reopen")
			sn.Release()
		})
	}
}

// TestFoldSplicesUnderPublishBurst: a fold overtaken, before its commit and
// again after it, by tierFanout² publishes — enough for the layers above its
// floor to carry twice — and by a gc tick both times must still find the
// sub-chain it wrote by pointer and splice it. Nothing but tier replaces a
// layer and tier stops at the fence, so a
// sub-chain that moved is an error now, not a second path:
// no failed round, nothing written twice, one cold record per live key.
func TestFoldSplicesUnderPublishBurst(t *testing.T) {
	kv := openKV(t, t.TempDir())
	defer kv.Close()
	s := openCold(t, kv, Options{})
	live := map[string]bool{}
	publish := func(p int) {
		b := fetchBatch(s, p)
		for k := range b.writes {
			live[k] = true
		}
		if err := b.Publish(); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < 3*tierFanout; p++ {
		publish(p)
	}
	floor := s.Watermark() // nothing is pinned: the round's floor
	hooks := 0
	var ticks sync.WaitGroup
	var once [FoldAfterCommit + 1]sync.Once // the ticks' own rounds pass through the hook too
	s.SetFoldHook(func(p FoldPoint) error {
		once[p].Do(func() {
			hooks++
			for q := 0; q < tierFanout*tierFanout+3; q++ {
				publish(1000*int(p) + q)
			}
			// The tick waits its turn behind this round, then folds the burst.
			ticks.Add(1)
			go func() {
				defer ticks.Done()
				s.GC()
			}()
		})
		return nil
	})
	if _, err := s.Fold(); err != nil {
		t.Fatal(err)
	}
	s.SetFoldHook(nil)
	if hooks != 2 {
		t.Fatalf("fold hook ran %d times, want once per fold point", hooks)
	}
	if l := descendTo(s.current.Load().head, floor); l != nil {
		t.Fatalf("layers at or below the round's floor %d are still resident (epoch %d)", floor, l.epoch)
	}
	ticks.Wait()
	if _, err := s.Fold(); err != nil {
		t.Fatal(err)
	}
	if st := s.StoreStats().Cold; st.FoldErrors != 0 {
		t.Fatalf("FoldErrors = %d (%s)", st.FoldErrors, st.LastFoldError)
	}
	if got, phys := s.StoreStats().Cold.Records, physicalRecords(s, kv); got != int64(len(live)) || phys != got {
		t.Fatalf("Cold.Records = %d, %d part-0 records on disk, want %d distinct live keys", got, phys, len(live))
	}
	if n := s.StoreStats().Entries; n != 0 {
		t.Fatalf("%d versions still resident after folding everything", n)
	}
	sn := s.Acquire()
	defer sn.Release()
	for k := range live {
		if v, ok := sn.Get(k); !ok || string(v) != k {
			t.Fatalf("Get(%s) = %q, %v after the folds", k, v, ok)
		}
	}
}

// TestCrashUnderPinRecoversWholeBatches: tiering merges across a pinned
// epoch, so the chain can hold one layer whose batches lie on both sides of
// the pin. A fold under that pin must not call the pin's epoch durable: a
// crash right after its commit has to recover every batch at or
// below the watermark whole — every one of its records — and nothing above
// it.
func TestCrashUnderPinRecoversWholeBatches(t *testing.T) {
	errCrash := errors.New("injected crash")
	kv := openKV(t, t.TempDir())
	defer kv.Close()
	s := openCold(t, kv, Options{})

	type batch struct {
		epoch uint64
		keys  []string
	}
	var batches []batch
	publish := func(parts ...int) {
		b := s.BeginSized(0)
		var rec batch
		for _, part := range parts {
			k := fmt.Sprintf("b%d/%d", len(batches), part)
			b.Put(k, []byte(k))
			rec.keys = append(rec.keys, k)
		}
		if err := b.Publish(); err != nil {
			t.Fatal(err)
		}
		rec.epoch = s.Watermark()
		batches = append(batches, rec)
	}
	// One carry leaves a level-1 layer under an epoch the chain splits at;
	// the next carry, of the tierFanout batches after it, spans the pin.
	for i := 0; i < tierFanout; i++ {
		publish(0, 1)
	}
	split := s.Watermark() // the chain splits here: the last clean floor
	for i := 0; i < 3; i++ {
		publish(0)
	}
	for i := 0; i < 5; i++ {
		publish(0, 1)
	}
	pin := s.Acquire()
	defer pin.Release()
	for i := 0; i < tierFanout-3-5; i++ {
		publish(0, 1)
	}
	straddled := false
	for l := s.current.Load().head; l != nil; l = l.next {
		if l.oldest <= pin.Epoch() && pin.Epoch() < l.epoch {
			straddled = true
		}
	}
	if !straddled {
		t.Fatal("test setup: no merged layer spans the pinned epoch")
	}

	s.SetFoldHook(func(p FoldPoint) error {
		if p == FoldAfterCommit {
			return errCrash
		}
		return nil
	})
	if _, err := s.Fold(); !errors.Is(err, errCrash) {
		t.Fatalf("Fold error = %v, want the injected crash after its commit", err)
	}
	// The process dies here; the pinned snapshot dies with it.
	s2 := openCold(t, kv, Options{})
	wm := s2.Watermark()
	sn := s2.Acquire()
	defer sn.Release()
	for _, b := range batches {
		for _, k := range b.keys {
			v, ok := sn.Get(k)
			switch {
			case b.epoch <= wm && (!ok || string(v) != k):
				t.Fatalf("watermark %d is durable but batch %d lost %s (batch keys %v)", wm, b.epoch, k, b.keys)
			case b.epoch > wm && ok:
				t.Fatalf("batch %d leaked %s above the recovered watermark %d", b.epoch, k, wm)
			}
		}
	}
	if wm != split {
		t.Fatalf("recovered watermark = %d, want %d: the highest epoch at or below the pin (%d) that the chain splits at", wm, split, pin.Epoch())
	}
}

// TestFoldKeepsUpUnderConstantPins: with readers re-pinning all the time
// the chain has often merged across the oldest pin, so a fold's floor falls
// below the spanning layer. The tier fence bounds that fall: every round
// must reach at least the watermark at which the round before it started,
// or durability starves for as long as anyone reads.
func TestFoldKeepsUpUnderConstantPins(t *testing.T) {
	kv := openKV(t, t.TempDir())
	defer kv.Close()
	s := openCold(t, kv, Options{})
	rng := rand.New(rand.NewSource(1))
	type pin struct {
		sn    *Snapshot
		until uint64
	}
	var pins []pin
	const round = 40 * tierFanout
	lowered := 0
	var prevStart uint64
	for p := 0; p < 5*round; p++ {
		if err := fetchBatch(s, p).Publish(); err != nil {
			t.Fatal(err)
		}
		wm := s.Watermark()
		live := pins[:0]
		for _, pn := range pins {
			if wm >= pn.until {
				pn.sn.Release()
			} else {
				live = append(live, pn)
			}
		}
		pins = live
		// Four readers pinning back to back for up to 2·tierFanout epochs
		// each, and a slow pass now and then.
		for len(pins) < 4 {
			pins = append(pins, pin{s.Acquire(), wm + 1 + uint64(rng.Intn(2*tierFanout))})
		}
		if p%(10*tierFanout) == 0 {
			pins = append(pins, pin{s.Acquire(), wm + 6*tierFanout})
		}
		if p%round != round-1 {
			continue
		}
		s.mu.Lock()
		cur := s.current.Load()
		if s.foldFloorLocked(cur) < s.pinFloorLocked(cur) {
			lowered++
		}
		s.mu.Unlock()
		if _, err := s.Fold(); err != nil {
			t.Fatal(err)
		}
		if got := s.ColdWatermark(); got < prevStart {
			t.Fatalf("fold at watermark %d left the durable watermark at %d, below %d where the round before it started", wm, got, prevStart)
		}
		prevStart = wm
	}
	if lowered == 0 {
		t.Fatal("test setup: no fold ever found its pin floor inside a merged layer")
	}
	for _, pn := range pins {
		pn.sn.Release()
	}
}

var sinkGet []byte

// BenchmarkGetAfterBurst is the read a mining pass makes right after an
// ingest burst: 10 000 fetch-shaped publishes with no GC, then hits and
// misses through one snapshot.
func BenchmarkGetAfterBurst(b *testing.B) {
	s := NewStore()
	const pages = 10000
	for p := 0; p < pages; p++ {
		fetchBatch(s, p).Publish()
	}
	sn := s.Acquire()
	defer sn.Release()
	keys := make([]string, 1024)
	for i := range keys {
		p := (i * 7919) % pages
		switch i % 4 {
		case 0:
			keys[i] = fmt.Sprintf("tf/%d", p)
		case 1:
			keys[i] = fmt.Sprintf("lnk/%d", p)
		case 2:
			keys[i] = fmt.Sprintf("rinD/%d/%d", (p*7)%97, p)
		default:
			keys[i] = fmt.Sprintf("rin/%d", p) // a miss walks the whole chain
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkGet, _ = sn.Get(keys[i%len(keys)])
	}
	b.ReportMetric(float64(s.StoreStats().Layers), "layers")
}
