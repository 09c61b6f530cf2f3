package kvstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// check walks the tree from the root and verifies its shape: every page
// sound as a slotted page and reached exactly once, none left over; keys
// strictly ascending within and across leaves; every separator at or below
// its right subtree's first key and above everything to its left; the
// `right` chain visiting exactly the leaves an in-order descent visits. It
// returns the number of cells in the leaves.
func (t *btree) check() (int, error) {
	if t.root == nilPage {
		return 0, nil
	}
	seen := map[pageID]bool{}
	var leaves []pageID
	var prev []byte
	cells := 0
	// walk checks the subtree at id, all of whose keys must lie in [lo, hi);
	// nil is unbounded.
	var walk func(id pageID, lo, hi []byte) error
	walk = func(id pageID, lo, hi []byte) error {
		if id == nilPage || id >= t.pg.npages {
			return fmt.Errorf("page %d out of range (file has %d)", id, t.pg.npages)
		}
		if seen[id] {
			return fmt.Errorf("page %d reached twice", id)
		}
		seen[id] = true
		p, err := t.pg.get(id)
		if err != nil {
			return err
		}
		defer t.pg.unpin(p)
		if err := checkSlots(p); err != nil {
			return err
		}
		inRange := func(k []byte) bool {
			return (lo == nil || bytes.Compare(k, lo) >= 0) && (hi == nil || bytes.Compare(k, hi) < 0)
		}
		switch p.kind {
		case pageLeaf:
			leaves = append(leaves, id)
			for i := 0; i < p.nkeys(); i++ {
				k := p.leafKey(i)
				if !inRange(k) {
					return fmt.Errorf("leaf %d key %q outside its separators [%q, %q)", id, k, lo, hi)
				}
				if prev != nil && bytes.Compare(prev, k) >= 0 {
					return fmt.Errorf("leaf %d key %q does not ascend from %q", id, k, prev)
				}
				prev = append(prev[:0], k...)
				cells++
			}
			return nil
		case pageInternal:
			n := p.nkeys()
			if n == 0 {
				return fmt.Errorf("internal page %d has no separator", id)
			}
			seps := make([][]byte, n)
			for i := range seps {
				seps[i] = append([]byte(nil), p.intKey(i)...)
				if !inRange(seps[i]) || (i > 0 && bytes.Compare(seps[i-1], seps[i]) >= 0) {
					return fmt.Errorf("internal page %d separator %d %q out of order or range [%q, %q)", id, i, seps[i], lo, hi)
				}
			}
			for i := -1; i < n; i++ {
				clo, chi := lo, hi
				if i >= 0 {
					clo = seps[i]
				}
				if i+1 < n {
					chi = seps[i+1]
				}
				if err := walk(p.childAt(i), clo, chi); err != nil {
					return err
				}
			}
			return nil
		}
		return fmt.Errorf("page %d has kind %d", id, p.kind)
	}
	if err := walk(t.root, nil, nil); err != nil {
		return 0, err
	}
	if len(seen) != int(t.pg.npages)-1 {
		return 0, fmt.Errorf("tree reaches %d pages, file holds %d besides the meta page", len(seen), t.pg.npages-1)
	}
	// The sibling chain is what Scan follows.
	id := leaves[0]
	for i, want := range leaves {
		if id != want {
			return 0, fmt.Errorf("right chain reaches page %d as leaf %d, descent reaches %d", id, i, want)
		}
		p, err := t.pg.get(id)
		if err != nil {
			return 0, err
		}
		id = p.right()
		t.pg.unpin(p)
	}
	if id != nilPage {
		return 0, fmt.Errorf("right chain runs on to page %d past the last leaf", id)
	}
	return cells, nil
}

// checkSlots verifies one page's slot directory: bodies inside the body
// area, which a leaf's prefix ends, none overlapping, each as long as its
// header says (a leaf cell's suffix inside its body).
func checkSlots(p *page) error {
	n := p.nkeys()
	if p.gap() < 0 {
		return fmt.Errorf("page %d: slot directory overlaps bodies (gap %d)", p.id, p.gap())
	}
	bodyEnd := PageSize - len(p.prefix())
	if p.kind != pageLeaf && bodyEnd != PageSize {
		return fmt.Errorf("page %d: internal page holds a %d-byte prefix", p.id, PageSize-bodyEnd)
	}
	if p.freeEnd() > bodyEnd {
		return fmt.Errorf("page %d: body area starts at %d, inside the prefix at %d", p.id, p.freeEnd(), bodyEnd)
	}
	type span struct{ off, end int }
	spans := make([]span, n)
	for i := range spans {
		off, ln := p.slotOffset(i), p.slotLen(i)
		if off < p.freeEnd() || off+ln > bodyEnd || ln < 1 {
			return fmt.Errorf("page %d slot %d: body [%d,%d) outside [%d,%d)", p.id, i, off, off+ln, p.freeEnd(), bodyEnd)
		}
		if p.kind == pageLeaf {
			slen, m := binary.Uvarint(p.buf[off : off+ln])
			if m <= 0 || m+int(slen) > ln {
				return fmt.Errorf("page %d slot %d: length %d, cell header says a %d-byte suffix", p.id, i, ln, slen)
			}
		} else if want := 6 + int(binary.LittleEndian.Uint16(p.buf[off:])); ln != want {
			return fmt.Errorf("page %d slot %d: length %d, cell header says %d", p.id, i, ln, want)
		}
		spans[i] = span{off, off + ln}
	}
	sort.Slice(spans, func(a, b int) bool { return spans[a].off < spans[b].off })
	for i := 1; i < n; i++ {
		if spans[i].off < spans[i-1].end {
			return fmt.Errorf("page %d: cell bodies overlap at %d", p.id, spans[i].off)
		}
	}
	return nil
}

// checkStore runs check under the store's write lock and compares the cell
// count with Len.
func checkStore(t testing.TB, s *Store) {
	t.Helper()
	s.mu.Lock()
	cells, err := s.tree.check()
	count := int(s.count)
	s.mu.Unlock()
	if err != nil {
		t.Fatalf("tree check: %v", err)
	}
	if cells != count {
		t.Fatalf("tree holds %d cells, Len says %d", cells, count)
	}
}

// leafFill is what the leaves fill (cell bodies, slots and prefixes) over
// the room they have.
func leafFill(t testing.TB, s *Store) (fill float64, leaves int) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	used := 0
	id, err := s.tree.leftmostLeaf()
	for err == nil && id != nilPage {
		var p *page
		if p, err = s.tree.pg.get(id); err == nil {
			leaves++
			used += p.liveBytes() - pageHeaderSize
			id = p.right()
			s.tree.pg.unpin(p)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return float64(used) / float64(leaves*pageRoom), leaves
}

// fuzzKey maps an index to one of 512 keys. Two in three are short, so
// replaces and growth in place happen; the rest carry up to 420 bytes of
// padding, so separators are long enough to fill a parent and make it
// refuse a longer one.
func fuzzKey(idx int) []byte {
	idx %= 512
	k := []byte(fmt.Sprintf("k%03d", idx))
	if idx%3 == 0 {
		k = append(k, bytes.Repeat([]byte{'x'}, idx%7*70)...)
	}
	return k
}

// fuzzOps encodes a scripted run for the seed corpus: op, key index,
// value length, four bytes each.
func fuzzOps(ops ...[3]int) []byte {
	var b []byte
	for _, o := range ops {
		b = append(b, byte(o[0]), byte(o[1]), byte(o[1]>>8), byte(o[2]>>2))
	}
	return b
}

// Op bytes. Three in four are puts and a torn tail, a reopen or a crash is
// one value each: all end in a checkpoint's fsync, and a mutated input
// should spend its steps in the tree.
const (
	fuzzPut    = 0   // up to fuzzDelete
	fuzzDelete = 192 // up to fuzzTorn
	fuzzTorn   = 253
	fuzzReopen = 254
	fuzzCrash  = 255
)

// FuzzTreeAgainstMap decodes the input into puts, deletes, clean reopens,
// crashes (handles dropped without Close, the log replayed) and torn tails
// (a crash after a cut prefix of one more record reached the log, which
// recovery must drop, and later commits must not sit behind) and keeps a
// map beside the store. Every step checks the tree's shape, Len and the
// key it touched; every new life of the store and the end of the run
// compare Get of every key and one full Scan with the map.
func FuzzTreeAgainstMap(f *testing.F) {
	var asc, desc, grow, refill, longSep, random [][3]int
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		asc = append(asc, [3]int{fuzzPut, i + 1, 200})
		desc = append(desc, [3]int{fuzzPut, 511 - i, 200})
		random = append(random, [3]int{rng.Intn(256), rng.Intn(512), rng.Intn(maxPayload + 8)})
		// Keys 0 mod 21 are the 424-byte ones; small values, so leaves
		// hold few cells and parents fill with long separators, between
		// short-keyed neighbours whose rebalance wants a longer one.
		longSep = append(longSep, [3]int{fuzzPut, i * 3 % 512, 40}, [3]int{fuzzPut, (i*21 + 6) % 512, 600})
	}
	for i := 0; i < 200; i++ {
		grow = append(grow, [3]int{fuzzPut, i*2 + 1, 100})
		refill = append(refill, [3]int{fuzzPut, i + 1, 300})
	}
	for i := 0; i < 200; i += 2 {
		grow = append(grow, [3]int{fuzzPut, i*2 + 1, 500}, [3]int{fuzzPut, i*2 + 1, 1000})
		refill = append(refill, [3]int{fuzzDelete, i + 1, 0})
	}
	refill = append(refill, [3]int{fuzzCrash, 0, 0})
	for i := 0; i < 200; i++ {
		refill = append(refill, [3]int{fuzzPut, 256 + i, 300})
	}
	grow = append(grow, [3]int{fuzzReopen, 0, 0})
	// Torn tails cut inside the header, the key or the value, behind
	// unreplayed commits and alone in a log a crash-reopen just emptied,
	// and one whole record with no commit; each followed by puts that the
	// crash after them must keep.
	var torn [][3]int
	for i := 0; i < 8; i++ {
		torn = append(torn, [3]int{fuzzPut, i, 100}, [3]int{fuzzTorn, i * 37, i * 150}, [3]int{fuzzPut, 100 + i, 200}, [3]int{fuzzCrash, 0, 0},
			[3]int{fuzzTorn, i*37 + 5, 60}, [3]int{fuzzPut, 200 + i, 100}, [3]int{fuzzCrash, 0, 0})
	}
	whole := 0 // a key index whose torn op writes all of its 40-byte put
	for (whole+1)%(21+len(fuzzKey(whole))+40) != 0 {
		whole++
	}
	torn = append(torn, [3]int{fuzzTorn, whole, 40}, [3]int{fuzzPut, 300, 100}, [3]int{fuzzCrash, 0, 0})
	// A checkpoint (the reopen) between two runs of puts in random key
	// order, then a crash: the second run outgrows the 8-page pool, and a
	// dirty page evicted into data.db before the crash would leave the log
	// replaying over a later image than its own.
	var evict [][3]int
	for i := 0; i < 600; i++ {
		if i == 300 {
			evict = append(evict, [3]int{fuzzReopen, 0, 0})
		}
		evict = append(evict, [3]int{fuzzPut, rng.Intn(512), 200})
	}
	evict = append(evict, [3]int{fuzzCrash, 0, 0})
	// Prefix leaves. edge: 100…199 fill leaves whose prefixes run from
	// "k1" to "k19"; keys from either side of that family then land at the
	// left edge of the first leaf and the right edge of the last, shorten
	// their prefixes (growing every cell) and split or rebalance them.
	// mixed: a k4 family thinned by deletes, then a k0 family arriving at
	// the left edge of its first leaf, which sheds cells into k4 siblings
	// under another prefix. reinsert: deletes that leave leaves under-full
	// and one range empty, so later inserts meet stale prefixes, then the
	// keys again with longer values, across a reopen.
	var edge, mixed, reinsert [][3]int
	for i := 100; i < 200; i++ {
		edge = append(edge, [3]int{fuzzPut, i, 120})
	}
	for i := 0; i < 60; i++ {
		edge = append(edge, [3]int{fuzzPut, 200 + i, 120}, [3]int{fuzzPut, 99 - i, 120})
	}
	for i := 0; i < 100; i++ {
		mixed = append(mixed, [3]int{fuzzPut, 400 + i, 200})
	}
	for i := 0; i < 100; i += 2 {
		mixed = append(mixed, [3]int{fuzzDelete, 400 + i, 0})
	}
	for i := 0; i < 100; i++ {
		mixed = append(mixed, [3]int{fuzzPut, i, 160})
	}
	for i := 0; i < 300; i++ {
		reinsert = append(reinsert, [3]int{fuzzPut, i, 100})
	}
	for i := 0; i < 300; i++ {
		if i%3 != 0 || (i >= 100 && i < 200) {
			reinsert = append(reinsert, [3]int{fuzzDelete, i, 0})
		}
	}
	reinsert = append(reinsert, [3]int{fuzzReopen, 0, 0})
	for i := 0; i < 300; i++ {
		reinsert = append(reinsert, [3]int{fuzzPut, (i*7 + 150) % 300, 140})
	}
	for _, seed := range [][][3]int{asc, desc, random, grow, refill, longSep, torn, evict, edge, mixed, reinsert} {
		f.Add(fuzzOps(seed...))
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		dir := t.TempDir()
		// SyncGroup: every commit reaches the log file, so a crash loses
		// nothing the model holds. The smallest pool, so every tree past
		// eight pages evicts between checkpoints.
		open := func() *Store {
			s, err := Open(dir, Options{Sync: SyncGroup, CacheSize: 8})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			return s
		}
		s := open()
		defer func() { s.Close() }()
		model := map[string][]byte{}
		compare := func(step int) {
			t.Helper()
			for k, want := range model {
				got, ok, err := s.Get([]byte(k))
				if err != nil || !ok || !bytes.Equal(got, want) {
					t.Fatalf("step %d: Get %q: ok=%v err=%v, %d bytes want %d", step, k, ok, err, len(got), len(want))
				}
			}
			n := 0
			var prev []byte
			err := s.Scan(nil, nil, func(k, v []byte) bool {
				if want, ok := model[string(k)]; !ok || !bytes.Equal(v, want) {
					t.Fatalf("step %d: Scan yields %q (%d bytes), model has it: %v", step, k, len(v), ok)
				}
				if prev != nil && bytes.Compare(prev, k) >= 0 {
					t.Fatalf("step %d: Scan yields %q after %q", step, k, prev)
				}
				prev = k
				n++
				return true
			})
			if err != nil || n != len(model) {
				t.Fatalf("step %d: Scan saw %d keys (err %v), model %d", step, n, err, len(model))
			}
		}
		step := 0
		for ; len(in) >= 4; step, in = step+1, in[4:] {
			op, idx, vlen := in[0], int(in[1])|int(in[2])<<8, int(in[3])<<2
			key := fuzzKey(idx)
			switch {
			case op == fuzzCrash:
				crash(s)
				s = open()
				compare(step)
			case op == fuzzTorn:
				// A put of key with a vlen-byte value, cut after idx mod
				// its length + 1 bytes: the whole record, with no commit,
				// at most.
				var rec bytes.Buffer
				w := &wal{w: bufio.NewWriter(&rec), lsn: s.wal.lsn}
				w.append(walPut, key, make([]byte, vlen))
				w.w.Flush()
				crash(s)
				f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				f.Write(rec.Bytes()[:1+idx%rec.Len()])
				f.Close()
				s = open()
				compare(step)
			case op == fuzzReopen:
				if err := s.Close(); err != nil {
					t.Fatalf("step %d Close: %v", step, err)
				}
				s = open()
				compare(step)
			case op >= fuzzDelete:
				if err := s.PutBatch([]KV{{Key: key, Delete: true}}); err != nil {
					t.Fatalf("step %d Delete: %v", step, err)
				}
				delete(model, string(key))
			default:
				val := bytes.Repeat([]byte{byte(step)}, vlen)
				err := s.Put(key, val)
				if len(key)+vlen > maxPayload {
					if !ErrTooLarge(err) {
						t.Fatalf("step %d Put of %d+%d bytes: %v, want too large", step, len(key), vlen, err)
					}
					break
				}
				if err != nil {
					t.Fatalf("step %d Put: %v", step, err)
				}
				model[string(key)] = val
			}
			checkStore(t, s)
			if keyCount(s) != len(model) {
				t.Fatalf("step %d: Len %d, model %d", step, keyCount(s), len(model))
			}
			got, ok, err := s.Get(key)
			if want, has := model[string(key)]; err != nil || ok != has || !bytes.Equal(got, want) {
				t.Fatalf("step %d: Get %q: ok=%v err=%v %d bytes, model has it: %v, %d bytes", step, key, ok, err, len(got), has, len(want))
			}
		}
		compare(step)
	})
}

// fillPatterns are the eight ways of loading a tree whose leaf fill
// DESIGN.md §4 "Split last" tables: 20 000 keys (8-byte, so order is
// numeric) with 50-byte values unless the pattern says otherwise.
var fillPatterns = []struct {
	name string
	// floor is the least leaf fill the pattern must reach; a split-only
	// tree reaches none of them (0.50 0.56 0.68 0.67 0.51 0.50 0.58 0.64).
	floor float64
	load  func(tb testing.TB, s *Store, n int)
}{
	{"ascending", 0.97, func(tb testing.TB, s *Store, n int) { // 0.991: each leaf fills, then splits at its end
		for i := 0; i < n; i++ {
			putN(tb, s, i, 50)
		}
	}},
	{"grow-in-place", 0.62, func(tb testing.TB, s *Store, n int) {
		for i := 0; i < n; i++ {
			putN(tb, s, i, 50)
		}
		for i := 0; i < n; i += 4 {
			putN(tb, s, i, 80)
		}
	}},
	{"random", 0.78, func(tb testing.TB, s *Store, n int) {
		for _, i := range rand.New(rand.NewSource(5)).Perm(n) {
			putN(tb, s, i, 50)
		}
	}},
	{"random-large-values", 0.78, func(tb testing.TB, s *Store, n int) {
		rng := rand.New(rand.NewSource(6))
		for _, i := range rng.Perm(n / 4) {
			putN(tb, s, i, 300+rng.Intn(401))
		}
	}},
	{"descending", 0.80, func(tb testing.TB, s *Store, n int) {
		for i := n - 1; i >= 0; i-- {
			putN(tb, s, i, 50)
		}
	}},
	{"interleaved-runs", 0.80, func(tb testing.TB, s *Store, n int) {
		// 40 users each append to their own run of keys, taking turns,
		// as the visits table's per-user keys grow.
		const users = 40
		for i := 0; i < n; i++ {
			putN(tb, s, (i%users)<<32|i/users, 50)
		}
	}},
	{"sorted-batch-into-gap", 0.80, func(tb testing.TB, s *Store, n int) {
		// Half the keys in random order, below and above a gap; then the
		// gap's keys in ascending order, in batches, as a fold round
		// writes a family's new records after its old ones.
		for _, i := range rand.New(rand.NewSource(8)).Perm(n / 2) {
			if i >= n/4 {
				i += n / 2
			}
			putN(tb, s, i, 50)
		}
		batch := make([]KV, 0, 500)
		for i := n / 4; i < 3*n/4; i++ {
			batch = append(batch, KV{Key: keyN(i), Value: make([]byte, 50)})
			if len(batch) == cap(batch) || i == 3*n/4-1 {
				if err := s.PutBatch(batch); err != nil {
					tb.Fatal(err)
				}
				batch = batch[:0]
			}
		}
	}},
	{"delete-half-refill", 0.75, func(tb testing.TB, s *Store, n int) {
		rng := rand.New(rand.NewSource(7))
		perm := rng.Perm(2 * n)
		for _, i := range perm[:n] {
			putN(tb, s, i, 50)
		}
		for _, i := range perm[:n/2] {
			if err := s.PutBatch([]KV{{Key: keyN(i), Delete: true}}); err != nil {
				tb.Fatal(err)
			}
		}
		for _, i := range perm[n : n+n/2] {
			putN(tb, s, i, 50)
		}
	}},
}

func keyN(i int) []byte { return binary.BigEndian.AppendUint64(nil, uint64(i)) }

func putN(tb testing.TB, s *Store, i, vlen int) {
	if err := s.Put(keyN(i), make([]byte, vlen)); err != nil {
		tb.Fatal(err)
	}
}

// TestLeafFillByPattern holds the space claim as a number: each pattern's
// leaf fill stays above its floor, and the work that buys it stays bounded
// — at most three rebalances a split.
func TestLeafFillByPattern(t *testing.T) {
	for _, pat := range fillPatterns {
		t.Run(pat.name, func(t *testing.T) {
			s := openTemp(t, Options{Sync: SyncGroup})
			pat.load(t, s, 20000)
			checkStore(t, s)
			fill, leaves := leafFill(t, s)
			st := s.Stats()
			t.Logf("fill %.3f over %d leaves; %d splits, %d rebalances", fill, leaves, st.LeafSplits, st.LeafRebalances)
			if fill < pat.floor {
				t.Errorf("leaf fill %.3f, want at least %.2f", fill, pat.floor)
			}
			if st.LeafRebalances > 3*st.LeafSplits {
				t.Errorf("%d rebalances for %d splits, want at most 3 a split", st.LeafRebalances, st.LeafSplits)
			}
		})
	}
}

// BenchmarkPutPatterns loads a fresh store with 40 000 keys' worth of each
// of the three patterns that differ in what a full leaf does. One op is one
// load, splits and rebalances included; ns/put divides it by the puts made.
func BenchmarkPutPatterns(b *testing.B) {
	const n = 40000
	for _, pat := range fillPatterns[:3] {
		b.Run(pat.name, func(b *testing.B) {
			b.ReportAllocs()
			var puts uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := Open(b.TempDir(), Options{Sync: SyncGroup})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				pat.load(b, s, n)
				b.StopTimer()
				puts += s.Stats().Commits
				s.Close()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(puts), "ns/put")
		})
	}
}
