package version

// This file is the store's persistent cold tier: the disk half of the
// hot → cold tiering described in the package doc. GC folds every
// layer at or below the fold floor (the pin floor, or the nearest epoch
// below it that no merged layer spans) into the owning kvstore B+tree and
// splices the folded layers out of the in-memory chain, so RAM holds only
// the data published since the last fold while the archive's full history
// lives on disk. Snapshot.Get falls through a missed in-memory chain walk
// to a read-only kvstore handle.
//
// # On-disk layout
//
// Everything lives under the prefix the owner passed to Open (so the
// cold tier coexists with other keyspaces — the engine's table records —
// in one kvstore):
//
//	<prefix>r/<esc(key)>                   → part count ‖ payload (part 0)
//	<prefix>r/<esc(key)>\x00\x00<part:2B>  → payload (parts 1 and up)
//	<prefix>m/wm                           → watermark (8B BE) ‖ key count (8B BE)
//
// A key has one record on disk, its newest folded value; the store has no
// deletes, so a key once folded keeps its record. Keys escape 0x00 as
// 0x00 0xff, which keeps their order, so 0x00 0x00 never occurs inside an
// escaped key: the key's end means part 0, and 0x00 0x00 means a part
// number follows. Records larger than one tree entry (kvstore.MaxKV) are
// split into parts; part 0 carries the part count, so a read is one point
// get per part. Nearly every record is part 0 alone, so its key is the
// escaped key and nothing else. A key's parts sort right after its part 0
// and ahead of every longer key (whose next byte is above 0x00, or is the
// 0x00 0xff of an escaped zero).
//
// m/wm is the only meta record. The store does not tell its layout from
// another's: the owner stamps the archive (core's format record) and
// refuses one of another format before it opens this store.
//
// # Crash contract
//
// A fold round is one kvstore commit, which recovery replays whole or not
// at all. The commit holds every merged key's parts, written over the old
// ones; deletes for the parts a shorter value no longer uses; and m/wm,
// carrying the new watermark and the exact key count. After a crash Open
// therefore finds the disk as it was before some round or after it, never
// between: it reads m/wm and nothing else, and the next publish takes
// watermark+1, so a recovered epoch number is never reused. The watermark vouches for every batch at or below
// it, which is why a round's floor never falls inside a layer that tiering
// merged across it (Store.foldFloorLocked): a fold moves whole layers or
// none of one.
//
// One version per key is enough because no live snapshot needs an older
// one. A snapshot pinned while a round runs has the round's layers in its
// chain (the fold floor is at or below every pin), so it never reads a key
// the round writes from disk; a snapshot pinned later sees the round
// committed.
//
// A round that fails before its commit wrote nothing; one that fails after
// it (a fold hook) is the same event seen from inside: what it wrote is
// durable. Either way its layers stay resident and shadow the disk, and the
// next round writes them again. Each round reads the
// part count of every key it writes before it writes it, so the key count
// in m/wm stays exact through any number of failed rounds.

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"

	"memex/internal/kvstore"
)

// MaxColdKeyLen caps key length: the escaped key plus framing must leave
// room in one kvstore entry for a useful payload part. Batch.Put panics
// beyond it (loudly, like other Batch misuse) so an oversized key surfaces
// at publish time, not as a fold error every GC tick forever after.
const MaxColdKeyLen = 256

// foldMinEntries is the foldable-entry count below which a periodic GC
// leaves data in memory (tiny folds would churn the WAL for no memory win).
// Fold and Close always fold everything.
const foldMinEntries = 4096

// coldTier is the store's handle on its disk keyspace.
type coldTier struct {
	kv     *kvstore.Store // snapshot fallthrough reads, and fold rounds
	prefix []byte

	// wm is the durable fold watermark: every record at or below it is on
	// disk; nothing above it is visible after recovery. records is the
	// number of keys on disk. Both are what m/wm holds; a fold writes them
	// under foldMu.
	wm      atomic.Uint64
	records atomic.Int64

	readErrs   atomic.Uint64 // cold reads that failed at the kvstore layer
	reads      atomic.Uint64 // cold fallthrough gets (chain misses that hit disk)
	readMisses atomic.Uint64 // fallthrough gets that found nothing
	folds      atomic.Uint64 // completed fold rounds
	foldedN    atomic.Uint64 // in-memory entries folded to disk, cumulative
	foldErrs   atomic.Uint64 // fold rounds that returned an error
	lastErr    atomic.Pointer[string]
}

// FoldPoint names a crash-injection point inside a fold. Tests install a
// hook with SetFoldHook to simulate a process killed mid-fold; returning an
// error aborts the fold exactly there.
type FoldPoint int

const (
	// FoldBeforeCommit fires after the round has built its commit — the
	// point reads done — but before writing it: a crash here must recover
	// the disk exactly as the previous round left it.
	FoldBeforeCommit FoldPoint = 1
	// FoldAfterCommit fires after the round's commit — its records and its
	// watermark durable — but before the in-memory splice: a crash here must
	// leave every folded record readable after recovery.
	FoldAfterCommit FoldPoint = 2
)

// SetFoldHook installs a failpoint for crash/recovery tests. A nil hook
// removes it.
//
//memexvet:ignore reader the crash tests' failpoint: TestCrashRecoveryMidFold and TestFoldSplicesUnderPublishBurst here, TestStatusReportsFailedFold in internal/core
func (s *Store) SetFoldHook(h func(FoldPoint) error) {
	s.foldMu.Lock()
	s.foldHook = h
	s.foldMu.Unlock()
}

func (s *Store) foldPoint(p FoldPoint) error {
	if s.foldHook != nil {
		return s.foldHook(p)
	}
	return nil
}

// Options configures a store opened over a kvstore cold tier. It has no
// fields; Open keeps the parameter so its callers need not change.
type Options struct{}

// Open builds a store whose cold tier lives under prefix in kv: it reads
// m/wm back and resumes publishing at watermark+1. An m/wm of the wrong
// length is refused before anything is written. The caller keeps
// ownership of kv and must close it after the store (Close folds through
// it).
func Open(kv *kvstore.Store, prefix string, _ Options) (*Store, error) {
	c := &coldTier{kv: kv, prefix: []byte(prefix)}
	wm, records, err := c.readMeta()
	if err != nil {
		return nil, err
	}
	c.wm.Store(wm)
	c.records.Store(records)

	// Resume: new snapshots pin the recovered watermark, and the next
	// publish takes the epoch above it, so no recovered record's epoch is
	// ever reissued to a new batch.
	st := &state{watermark: wm}
	s := &Store{cold: c, history: []*state{st}}
	s.current.Store(st)
	return s, nil
}

// Close folds everything at or below the pin floor to the cold tier so a
// graceful shutdown loses nothing (a crash loses only what was published
// after the last fold). The kvstore stays open — the owner closes it.
func (s *Store) Close() error {
	_, err := s.Fold()
	return err
}

// --- key codec ---

func (c *coldTier) metaKey(name string) []byte {
	k := make([]byte, 0, len(c.prefix)+2+len(name))
	k = append(k, c.prefix...)
	k = append(k, "m/"...)
	return append(k, name...)
}

// readMeta reads m/wm (absent in a keyspace that never folded). An m/wm
// of the wrong length is refused: a guessed watermark would reissue epochs
// the archive already holds.
func (c *coldTier) readMeta() (wm uint64, records int64, err error) {
	key := c.metaKey("wm")
	raw, found, err := c.kv.Get(key)
	switch {
	case err != nil:
		return 0, 0, fmt.Errorf("version: read %s: %w", key, err)
	case !found:
		return 0, 0, nil
	case len(raw) != 16:
		return 0, 0, fmt.Errorf("version: meta record %s is %d bytes, want 16: refusing to open a malformed archive", key, len(raw))
	}
	return binary.BigEndian.Uint64(raw), int64(binary.BigEndian.Uint64(raw[8:])), nil
}

// recPrefix is the prefix of every record key.
func (c *coldTier) recPrefix() []byte {
	k := make([]byte, 0, len(c.prefix)+2)
	k = append(k, c.prefix...)
	return append(k, "r/"...)
}

// recordKey is one part's key: part 0's ends with the escaped key.
func (c *coldTier) recordKey(key string, part uint16) []byte {
	k := appendEscaped(c.recPrefix(), key)
	if part == 0 {
		return k
	}
	return binary.BigEndian.AppendUint16(append(k, 0x00, 0x00), part)
}

// appendEscaped appends key with 0x00 escaped as 0x00 0xff, so the
// 0x00 0x00 ahead of a part number can never occur inside an escaped key.
func appendEscaped(dst []byte, key string) []byte {
	for i := 0; i < len(key); i++ {
		if key[i] == 0x00 {
			dst = append(dst, 0x00, 0xff)
		} else {
			dst = append(dst, key[i])
		}
	}
	return dst
}

// parseRecordKey decodes a record key back into the key and the part. It
// accepts only what recordKey writes: part 0 with no part number, so a
// part number of zero written out is refused, and so is a lone 0x00.
func (c *coldTier) parseRecordKey(k []byte) (key string, part uint16, ok bool) {
	rest := k[len(c.recPrefix()):]
	buf := make([]byte, 0, len(rest))
	for i := 0; i < len(rest); i++ {
		if rest[i] != 0x00 {
			buf = append(buf, rest[i])
			continue
		}
		if i+1 == len(rest) {
			return "", 0, false
		}
		switch tail := rest[i+2:]; {
		case rest[i+1] == 0xff:
			buf = append(buf, 0x00)
			i++ // skip the 0xff escape byte
		case rest[i+1] == 0x00 && len(tail) == 2 && (tail[0] != 0 || tail[1] != 0):
			return string(buf), binary.BigEndian.Uint16(tail), true
		default:
			return "", 0, false
		}
	}
	return string(buf), 0, true
}

// partPayload returns how many payload bytes fit in one part of this
// key's records (the kvstore caps key+value per entry).
func (c *coldTier) partPayload(key string) int {
	// Worst-case escaped key doubles; framing = prefix + r/ + part number;
	// value head = max uvarint part count. A part past 0 spends 4 bytes on
	// 0x00 0x00 and its number and has no head, part 0 has only the head:
	// 2 + MaxVarintLen32 covers either.
	overhead := len(c.prefix) + 2 + 2*len(key) + 2 + binary.MaxVarintLen32
	return kvstore.MaxKV - overhead
}

// appendRecord encodes key's value as its parts onto dst and returns how
// many parts it took.
func (c *coldTier) appendRecord(dst []kvstore.KV, key string, value []byte) ([]kvstore.KV, int, error) {
	per := c.partPayload(key)
	if per <= 0 {
		return dst, 0, fmt.Errorf("version: key %q too long for cold tier", key)
	}
	nparts := max(1, (len(value)+per-1)/per)
	if nparts > 1<<16-1 {
		return dst, 0, fmt.Errorf("version: value for %q too large for cold tier (%d bytes)", key, len(value))
	}
	for p := 0; p < nparts; p++ {
		val := value[p*per : min((p+1)*per, len(value))]
		if p == 0 {
			val = append(binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen32+len(val)), uint64(nparts)), val...)
		}
		dst = append(dst, kvstore.KV{Key: c.recordKey(key, uint16(p)), Value: val})
	}
	return dst, nparts, nil
}

// splitHead splits part 0's value into the part count and the first part's
// payload.
func splitHead(key string, v []byte) (int, []byte, error) {
	n, w := binary.Uvarint(v)
	if w <= 0 || n == 0 || n > 1<<16-1 {
		return 0, nil, fmt.Errorf("version: cold record %q has a malformed part count", key)
	}
	return int(n), v[w:], nil
}

// --- read path ---

// head reads key's part 0: the record's part count (0 when the key has no
// record) and its first payload part.
func (c *coldTier) head(key string) (int, []byte, error) {
	v, ok, err := c.kv.Get(c.recordKey(key, 0))
	if !ok || err != nil {
		return 0, nil, err
	}
	return splitHead(key, v)
}

// read returns key's value on disk, its parts reassembled.
func (c *coldTier) read(key string) ([]byte, bool, error) {
	n, val, err := c.head(key)
	if n == 0 || err != nil {
		return nil, false, err
	}
	for p := 1; p < n; p++ {
		v, ok, err := c.kv.Get(c.recordKey(key, uint16(p)))
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, fmt.Errorf("version: cold record %q lacks part %d of %d", key, p, n)
		}
		val = append(val, v...)
	}
	return val, true, nil
}

// get is the snapshot reads' fallthrough: one point get per part, through
// the read-only kvstore handle. A failed read counts in
// Stats.Cold.ReadErrors and, as it finds nothing, in ReadMisses.
func (c *coldTier) get(key string) ([]byte, bool, error) {
	c.reads.Add(1)
	val, ok, err := c.read(key)
	if err != nil {
		c.readErrs.Add(1)
	}
	if !ok {
		c.readMisses.Add(1)
	}
	return val, ok, err
}

// scan walks the record keyspace yielding every key with its value, parts
// reassembled. fn returning false stops the scan. A record key that does
// not parse, or a part out of sequence, ends it with an error.
func (c *coldTier) scan(fn func(key string, value []byte) bool) error {
	var (
		cur        string
		val        []byte
		need, have int
		bad        error
	)
	err := c.kv.ScanPrefix(c.recPrefix(), func(k, v []byte) bool {
		key, part, ok := c.parseRecordKey(k)
		switch {
		case !ok:
			bad = fmt.Errorf("version: cold keyspace holds %q, not a record key", k)
		case part == 0 && have == need:
			cur, have = key, 1
			need, val, bad = splitHead(key, v)
		case part > 0 && key == cur && int(part) == have:
			val = append(val, v...)
			have++
		default:
			bad = fmt.Errorf("version: cold record %q part %d found after %d of %q's %d parts", key, part, have, cur, need)
		}
		if bad != nil {
			return false
		}
		return have < need || fn(cur, val)
	})
	if err == nil {
		err = bad
	}
	if err == nil && have < need {
		err = fmt.Errorf("version: cold record %q lacks part %d of %d", cur, have, need)
	}
	if err != nil {
		c.readErrs.Add(1)
	}
	return err
}

// --- fold ---

// foldableEntries counts the in-memory entries at or below the current pin
// floor (GC's "is a fold worthwhile yet" check; the round itself may settle
// for a lower floor, see foldFloorLocked).
func (s *Store) foldableEntries() int {
	s.mu.Lock()
	cur := s.current.Load()
	floor := s.pinFloorLocked(cur)
	s.mu.Unlock()
	return entriesFrom(descendTo(cur.head, floor))
}

// mergeForFold merges the sub-chain from sub down newest-first (first write
// wins) and returns it with the number of in-memory entries the sub-chain
// held.
func mergeForFold(sub *layer) (merged map[string][]byte, resident int) {
	merged = make(map[string][]byte)
	for l := sub; l != nil; l = l.next {
		resident += len(l.entries)
		for k, v := range l.entries {
			if _, ok := merged[k]; !ok {
				merged[k] = v
			}
		}
	}
	return merged, resident
}

// roundCommit builds a fold round's one kvstore commit from the merged
// sub-chain: each key's parts written over its old ones, a delete for every
// old part beyond the new count, and m/wm
// with watermark wm and the key count the commit leaves on disk, which it
// also returns. A point read of each key's part 0 gives the old part count.
// The keys go in key order, so the reads and the writes each walk the tree
// in order, and a family that only grows (new ids past every old one)
// lands as an ascending run, which the B+tree packs into full leaves.
func (c *coldTier) roundCommit(merged map[string][]byte, wm uint64) ([]kvstore.KV, int64, error) {
	records := c.records.Load()
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var batch []kvstore.KV
	for _, k := range keys {
		v := merged[k]
		old, _, err := c.head(k)
		if err != nil {
			return nil, 0, fmt.Errorf("version: fold: read %q: %w", k, err)
		}
		var n int
		if batch, n, err = c.appendRecord(batch, k, v); err != nil {
			return nil, 0, err
		}
		if old == 0 {
			records++
		}
		for p := n; p < old; p++ {
			batch = append(batch, kvstore.KV{Key: c.recordKey(k, uint16(p)), Delete: true})
		}
	}
	meta := binary.BigEndian.AppendUint64(make([]byte, 0, 16), wm)
	meta = binary.BigEndian.AppendUint64(meta, uint64(records))
	return append(batch, kvstore.KV{Key: c.metaKey("wm"), Value: meta}), records, nil
}

// Fold folds the layers at or below the fold floor into the cold tier and
// splices them out of the in-memory chain, returning the number of
// in-memory entries moved to disk. The floor is the pin floor when no
// merged layer spans it, and otherwise the epoch just below that layer —
// no lower than the watermark at which the previous round started. It is
// safe to run concurrently with Publish and snapshot reads (pinned
// snapshots keep their captured chains, and everything folded is at or
// below every pin by construction). Concurrent folds serialise.
func (s *Store) Fold() (reclaimed int, err error) {
	c := s.cold
	s.foldMu.Lock()
	defer s.foldMu.Unlock()
	defer func() {
		if err != nil {
			c.foldErrs.Add(1)
			msg := err.Error()
			c.lastErr.Store(&msg)
		}
	}()

	// The floor is the pin floor lowered out of any merged layer spanning it
	// (foldFloorLocked): the watermark written below vouches for every batch
	// at or below it. Planting the tier fence in the same critical section
	// that captures the chain is what makes the splice below certain — from
	// here on no publish re-tiers a layer this round may write, and nothing
	// else replaces layers — and gives the next round an epoch no merge spans
	// to fall back to.
	s.mu.Lock()
	cur := s.current.Load()
	floor := s.foldFloorLocked(cur)
	s.tierFence = cur.watermark
	s.mu.Unlock()
	old := c.wm.Load()
	wm := max(floor, old)

	// The sub-chain at or below the floor is immutable, and no new layer can
	// appear below the floor (a publish takes the epoch above the watermark,
	// which is at or above the floor). Layers at or below the durable
	// watermark are resident only after a round that failed past its commit;
	// this round writes them again and finishes that one's work.
	sub := descendTo(cur.head, floor)
	if wm == old && sub == nil {
		return 0, nil // no new epoch to vouch for, and nothing to move
	}

	// Build the round's commit outside any store lock and write it: the
	// fold's commit point, replayed whole or not at all.
	merged, resident := mergeForFold(sub)
	batch, records, err := c.roundCommit(merged, wm)
	if err != nil {
		return 0, err
	}
	if err := s.foldPoint(FoldBeforeCommit); err != nil {
		return 0, err
	}
	if err := c.kv.PutBatch(batch); err != nil {
		return 0, err
	}
	c.wm.Store(wm)
	c.records.Store(records)
	if err := s.foldPoint(FoldAfterCommit); err != nil {
		return 0, err
	}

	// Splice the folded layers out of the chain. The captured sub-chain is
	// still where it was: tier stops at the fence planted above and nothing
	// else replaces a layer. Were it not, its records are durable and its
	// layers shadow them, so leaving the chain as it is loses nothing; the
	// round fails loudly instead of guessing.
	if sub != nil {
		s.mu.Lock()
		cur2 := s.current.Load()
		if descendTo(cur2.head, floor) != sub {
			s.mu.Unlock()
			return 0, fmt.Errorf("version: fold at floor %d: the sub-chain was replaced while the round wrote it; its layers stay resident", floor)
		}
		next := &state{watermark: cur2.watermark, head: spliceAbove(cur2.head, sub, nil)}
		s.current.Store(next)
		s.history = append(s.history, next)
		s.gcReclaimed += uint64(resident)
		s.mu.Unlock()
		reclaimed = resident
	}
	c.folds.Add(1)
	c.foldedN.Add(uint64(reclaimed))
	return reclaimed, nil
}

// ColdStats summarises the disk tier.
type ColdStats struct {
	// Watermark is the durable fold watermark: every epoch at or below it
	// survives a crash.
	Watermark uint64
	// Records is the number of keys on disk, one version each.
	Records int64
	// Folds counts completed fold rounds; FoldedEntries is the cumulative
	// number of in-memory entries moved to disk.
	Folds         uint64
	FoldedEntries uint64
	// FoldErrors counts fold rounds that failed, LastFoldError is the newest
	// one's text. A failed round loses nothing — its layers stay resident
	// and shadow whatever it wrote — but memory is not coming down.
	FoldErrors    uint64
	LastFoldError string
	// Reads counts snapshot gets that fell through the in-memory chain
	// to disk; ReadMisses is the subset that found nothing there.
	// ReadErrors counts cold reads that failed at the kvstore layer (each
	// degraded to a miss).
	Reads      uint64
	ReadMisses uint64
	ReadErrors uint64
}

func (c *coldTier) stats() ColdStats {
	st := ColdStats{
		Watermark:     c.wm.Load(),
		Records:       c.records.Load(),
		Folds:         c.folds.Load(),
		FoldedEntries: c.foldedN.Load(),
		FoldErrors:    c.foldErrs.Load(),
		Reads:         c.reads.Load(),
		ReadMisses:    c.readMisses.Load(),
		ReadErrors:    c.readErrs.Load(),
	}
	if msg := c.lastErr.Load(); msg != nil {
		st.LastFoldError = *msg
	}
	return st
}

// ColdWatermark reports the durable fold watermark — the highest epoch
// whose records are safely on disk — lock-free, for callers that poll it
// on a hot path (admission control compares it against Watermark to
// measure how far the fold has fallen behind publishes).
func (s *Store) ColdWatermark() uint64 {
	return s.cold.wm.Load()
}

// Range calls fn for every live key visible in the snapshot with its
// value, in-memory or cold; each key is yielded exactly once (the newest
// version at or below the snapshot epoch wins). fn returning false stops
// the walk. A cold-tier scan that fails ends the walk with that error:
// what fn saw until then is part of the snapshot, not all of it. It panics
// if the snapshot was released.
//
// The order is part of the contract: the chain's keys first, in no order,
// then the cold tier's in key order, skipping those the chain shadows. A
// store that has not published since Open has an empty chain, so there
// Range yields every key in key order.
func (sn *Snapshot) Range(fn func(key string, value []byte) bool) error {
	st := sn.view("Range")
	seen := make(map[string]bool)
	for l := st.head; l != nil; l = l.next {
		for k, v := range l.entries {
			if seen[k] {
				continue
			}
			seen[k] = true
			if !fn(k, v) {
				return nil
			}
		}
	}
	return sn.s.cold.scan(func(k string, v []byte) bool {
		return seen[k] || fn(k, v)
	})
}
