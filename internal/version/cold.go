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
// cold tier coexists with other keyspaces — the engine's RDBMS tables,
// the text index — in one kvstore):
//
//	<prefix>r/<esc(key)>\x00\x00<^epoch:8B><part:2B> → flags ‖ [nparts] ‖ payload
//	<prefix>m/wm                                  → watermark (8B BE)
//	<prefix>m/gen                                 → fold generation (8B BE), written before a round's records
//	<prefix>m/done                                → closed generation (8B BE) ‖ record count (uvarint), written after a round completes
//
// Keys escape 0x00 as 0x00 0xff and terminate with 0x00 0x00, so a
// prefix scan of one key's "version run" can never bleed into a
// neighbouring key. ^epoch (bit-complemented, big-endian) makes a run
// sort newest-first: a reader takes the first version at or below its
// snapshot epoch and stops. Records larger than one tree entry
// (kvstore.MaxKV) are split into parts; part 0 carries the part count.
//
// A keyspace holding <prefix>m/shards was written by the key-hash-sharded
// layout, whose record keys carried a 2-byte shard number after r/; Open
// refuses it by that name, and there is no migration.
//
// # Crash contract
//
// A fold writes all of a round's records (chunked, so concurrent readers
// interleave), then persists the watermark, then splices memory, then
// deletes superseded versions. The kvstore WAL replays in write order, so
// a durable watermark implies every record at or below it is durable too —
// given that the round wrote every such record, which is why its floor
// never falls inside a layer that tiering merged across it
// (Store.foldFloorLocked): a fold moves whole layers or none of one.
// Open purges any record above the persisted watermark — a torn fold
// leaves a prefix of its records on disk, invisible and reclaimed — and
// resumes epoch allocation at watermark+1, so a recovered epoch number is
// never reused. Superseded-version cleanup runs only after the watermark
// covering the superseding version is durable, and deletes a tombstone
// only after everything it shadows, so a torn cleanup can never resurrect
// an old value.
//
// The purge scan is bounded by per-fold generation records: a round
// writes m/gen before its first record and m/done (with the authoritative
// record count) as its last step, so a reopen that finds the
// two in agreement knows no round was torn, trusts the count, and omits
// the O(cold tier) scan entirely. Only an archive whose last round died
// mid-flight — or one predating the meta — pays the full scan-and-purge.
//
// A round that fails in process (a kvstore error, or a fold hook) is the
// same event seen from inside: what it wrote stays on disk, shadowed by the
// layers it did not splice, and the next round writes those layers again.
// The running count cannot follow that, so a failed round leaves it marked
// and the next round to complete recounts it with the scan Open uses
// (coldTier.scanRecords) before it vouches for it in m/done.

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"memex/internal/kvstore"
)

// MaxColdKeyLen caps key length for stores with a cold tier: the escaped
// key plus framing must leave room in one kvstore entry for a useful
// payload part. Batch.Put panics beyond it (loudly, like other Batch
// misuse) so an oversized key surfaces at publish time, not as a fold
// error every GC tick forever after.
const MaxColdKeyLen = 256

const (
	coldFlagTomb = 1 << 0 // record is a tombstone (no payload)

	// foldMinEntries is the foldable-entry count below which a periodic
	// GC leaves data in memory (tiny folds would churn the WAL for no
	// memory win). Fold and Close always fold everything.
	foldMinEntries = 4096

	// foldChunk is the number of kvstore records per bulk-write chunk
	// during a fold: concurrent kvstore readers wait on the write lock for
	// one chunk at most.
	foldChunk = kvstore.DefaultWriteChunk
)

// coldTier is the store's handle on its disk keyspace.
type coldTier struct {
	kv     *kvstore.Store    // write side: folds, watermark, cleanup
	rd     *kvstore.ReadView // read side: snapshot fallthrough
	prefix []byte

	// wm is the durable fold watermark: every record at or below it is on
	// disk; nothing above it is visible after recovery.
	wm atomic.Uint64

	// records counts live part-0 records (logical versions on disk,
	// superseded versions included until cleanup catches up). recount says
	// the count cannot be trusted: a fold sets it before its first record
	// write and clears it when it completes, so it is still set after a
	// round that failed, and the next round to complete replaces the count
	// with a scan. Guarded by foldMu.
	records atomic.Int64
	recount bool

	// gen is the fold-round generation: m/gen is persisted before a
	// round's record writes and m/done (same gen + the record count) after
	// the round fully completes, so Open can tell a cleanly-finished
	// archive (gen == done: trust the count, skip the purge scan) from a
	// torn one (scan and purge as before). Guarded by foldMu on the write
	// side; atomic so stats can read it.
	gen atomic.Uint64

	readErrs   atomic.Uint64 // cold reads that failed at the kvstore layer
	reads      atomic.Uint64 // cold fallthrough gets (chain misses that hit disk)
	readMisses atomic.Uint64 // fallthrough gets that found nothing
	folds      atomic.Uint64 // completed fold rounds
	foldedN    atomic.Uint64 // in-memory entries folded to disk, cumulative
	foldErrs   atomic.Uint64 // fold rounds that returned an error
	lastErr    atomic.Pointer[string]

	// recoveryScanned is the number of record keys Open's purge scan
	// examined (0 after a clean open, which runs no scan).
	recoveryScanned int64
	cleanOpen       bool
}

// FoldPoint names a crash-injection point inside a fold, in execution
// order. Tests install a hook with SetFoldHook to simulate a process
// killed mid-fold; returning an error aborts the fold exactly there.
type FoldPoint int

const (
	// FoldAfterWrite fires after the round's records are written to the
	// kvstore but before the watermark is persisted (and before the
	// in-memory splice): a crash here must leave every new record
	// invisible after recovery.
	FoldAfterWrite FoldPoint = iota + 1
	// FoldAfterWatermark fires after the watermark is durable but before
	// the in-memory splice and superseded-version cleanup: a crash here
	// must leave every folded record readable after recovery.
	FoldAfterWatermark
)

// SetFoldHook installs a failpoint for crash/recovery tests. A nil hook
// removes it.
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

// Open builds a store whose cold tier lives under prefix in kv, and
// recovers it: the watermark is read back, every record above it (a torn
// fold's leftovers) is purged, and the store resumes publishing at
// watermark+1. A meta record that is present but malformed is an error, and
// so is a keyspace written by the sharded layout (it holds m/shards); both
// are returned before anything is written. The caller keeps ownership of kv
// and must close it after the store (Close folds through it).
func Open(kv *kvstore.Store, prefix string, _ Options) (*Store, error) {
	c := &coldTier{kv: kv, rd: kv.ReadView(), prefix: []byte(prefix)}

	// Every meta record is read, and a malformed or retired one refused,
	// before anything below writes: a guessed watermark would purge every
	// record as torn, and a sharded keyspace's records would all read as
	// foreign keys.
	if raw, ok, err := c.getMeta(kv, "shards"); err != nil {
		return nil, err
	} else if ok {
		return nil, fmt.Errorf("version: keyspace holds %s (%d bytes), written by the key-hash-sharded layout whose record keys carry a shard prefix: refusing to open it (there is no migration)",
			c.metaKey("shards"), len(raw))
	}
	s := NewStore()
	wm, _, err := c.readUintMeta(kv, "wm")
	if err != nil {
		return nil, err
	}
	c.wm.Store(wm)

	// Fast path: a cleanly-finished archive carries matching m/gen and
	// m/done generation records (the fold writes gen before a round's
	// records and done — with the record count — only after the round
	// fully completed). When they match, no fold round was in flight at
	// shutdown, so no record above the watermark can exist and the
	// persisted count is authoritative: reopen is O(meta), not O(cold
	// tier).
	gen, hasGen, err := c.readUintMeta(kv, "gen")
	if err != nil {
		return nil, err
	}
	done, count, hasDone, err := c.readDoneMeta(kv)
	if err != nil {
		return nil, err
	}
	if gen > done {
		c.gen.Store(gen)
	} else {
		c.gen.Store(done)
	}
	if hasGen && hasDone && gen == done && count >= 0 {
		c.records.Store(count)
		c.cleanOpen = true
	} else {
		// Torn fold round or pre-generation-meta archive: purge
		// above-watermark leftovers and count what survives. A record
		// above the watermark can only come from a fold that died before
		// its watermark write; serving it would leak an epoch the
		// contract says was lost, and colliding with a reissued epoch
		// number would be worse.
		stale, scanned, err := c.scanRecords(wm)
		if err != nil {
			return nil, fmt.Errorf("version: recover cold tier: %w", err)
		}
		c.recoveryScanned = scanned
		if len(stale) > 0 {
			if err := kv.DeleteBatchChunked(stale, foldChunk); err != nil {
				return nil, fmt.Errorf("version: purge torn fold: %w", err)
			}
		}
	}

	s.cold = c

	// Resume: new snapshots pin the recovered watermark, and epoch
	// allocation restarts above it so no recovered record's epoch is ever
	// reissued to a new batch.
	s.mu.Lock()
	st := &state{watermark: wm}
	s.current.Store(st)
	s.history = []*state{st}
	s.nextEpoch = wm + 1
	s.mu.Unlock()
	return s, nil
}

// Close folds everything at or below the pin floor to the cold tier so a
// graceful shutdown loses nothing (a crash loses only what was published
// after the last fold). The kvstore stays open — the owner closes it.
// No-op for purely in-memory stores.
func (s *Store) Close() error {
	if s.cold == nil {
		return nil
	}
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

// getMeta reads the m/<name> record; absent is legal (a fresh keyspace,
// or one that never folded).
func (c *coldTier) getMeta(kv *kvstore.Store, name string) ([]byte, bool, error) {
	raw, ok, err := kv.Get(c.metaKey(name))
	if err != nil {
		return nil, false, fmt.Errorf("version: read %s: %w", c.metaKey(name), err)
	}
	return raw, ok, nil
}

// malformedMeta is Open's refusal of a present meta record of the wrong
// shape: there is no migration and no safe guess, so it names the key and
// the length found and leaves the archive untouched.
func (c *coldTier) malformedMeta(name string, raw []byte, want string) error {
	return fmt.Errorf("version: meta record %s is %d bytes, want %s: refusing to open a malformed archive",
		c.metaKey(name), len(raw), want)
}

// readUintMeta reads a meta record holding one big-endian uint64.
func (c *coldTier) readUintMeta(kv *kvstore.Store, name string) (uint64, bool, error) {
	raw, ok, err := c.getMeta(kv, name)
	if !ok || err != nil {
		return 0, false, err
	}
	if len(raw) != 8 {
		return 0, false, c.malformedMeta(name, raw, "8")
	}
	return binary.BigEndian.Uint64(raw), true, nil
}

// readDoneMeta reads the fold-completion record: generation (8B BE)
// followed by the live-record count as one uvarint. A record cut inside the
// generation or inside the count, or running on past the count, is
// malformed; one that stops after the generation is well-formed but vouches
// for no count (count is -1), and Open falls back to the full purge scan.
func (c *coldTier) readDoneMeta(kv *kvstore.Store) (gen uint64, count int64, ok bool, err error) {
	raw, ok, err := c.getMeta(kv, "done")
	if !ok || err != nil {
		return 0, 0, false, err
	}
	if len(raw) < 8 {
		return 0, 0, false, c.malformedMeta("done", raw, "at least 8")
	}
	gen = binary.BigEndian.Uint64(raw)
	if len(raw) == 8 {
		return gen, -1, true, nil
	}
	n, w := binary.Uvarint(raw[8:])
	if w <= 0 || 8+w != len(raw) {
		return 0, 0, false, c.malformedMeta("done", raw, "8 and one whole uvarint record count")
	}
	return gen, int64(n), true, nil
}

// encodeDoneMeta builds the m/done payload from the live record count.
func (c *coldTier) encodeDoneMeta(gen uint64) []byte {
	buf := binary.BigEndian.AppendUint64(nil, gen)
	return binary.AppendUvarint(buf, uint64(max(c.records.Load(), 0)))
}

// recPrefix is the prefix of every record key.
func (c *coldTier) recPrefix() []byte {
	k := make([]byte, 0, len(c.prefix)+2)
	k = append(k, c.prefix...)
	return append(k, "r/"...)
}

// runPrefix is the prefix of one key's version run.
func (c *coldTier) runPrefix(key string) []byte {
	k := appendEscaped(c.recPrefix(), key)
	return append(k, 0x00, 0x00)
}

// recordKey is one part's full key.
func (c *coldTier) recordKey(key string, epoch uint64, part uint16) []byte {
	k := c.runPrefix(key)
	k = binary.BigEndian.AppendUint64(k, ^epoch)
	return binary.BigEndian.AppendUint16(k, part)
}

// appendEscaped appends key with 0x00 escaped as 0x00 0xff, so the
// 0x00 0x00 run terminator can never occur inside an escaped key.
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

// parseRecordKey decodes a full record key back into its parts.
func (c *coldTier) parseRecordKey(k []byte) (key string, epoch uint64, part uint16, ok bool) {
	rest := k[len(c.recPrefix()):]
	if len(rest) < 2+8+2 {
		return "", 0, 0, false
	}
	// Find the 0x00 0x00 terminator; 0x00 inside the key is always
	// followed by 0xff.
	term := -1
	for i := 0; i+1 < len(rest); i++ {
		if rest[i] == 0x00 {
			if rest[i+1] == 0x00 {
				term = i
				break
			}
			i++ // skip the 0xff escape byte
		}
	}
	if term < 0 || len(rest)-(term+2) != 8+2 {
		return "", 0, 0, false
	}
	raw := rest[:term]
	buf := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); i++ {
		if raw[i] == 0x00 {
			buf = append(buf, 0x00)
			i++ // consume the 0xff
		} else {
			buf = append(buf, raw[i])
		}
	}
	epoch = ^binary.BigEndian.Uint64(rest[term+2:])
	part = binary.BigEndian.Uint16(rest[term+2+8:])
	return string(buf), epoch, part, true
}

// partPayload returns how many payload bytes fit in one part of this
// key's records (the kvstore caps key+value per entry).
func (c *coldTier) partPayload(key string) int {
	// Worst-case escaped key doubles; framing = prefix + r/ + term +
	// ^epoch + part; value head = flags + max uvarint part count.
	overhead := len(c.prefix) + 2 + 2*len(key) + 2 + 8 + 2 + 1 + binary.MaxVarintLen32
	return kvstore.MaxKV - overhead
}

// appendRecord encodes one logical record (possibly multi-part) onto dst.
func (c *coldTier) appendRecord(dst []kvstore.KV, key string, epoch uint64, e entry) ([]kvstore.KV, error) {
	if e.deleted {
		return append(dst, kvstore.KV{
			Key:   c.recordKey(key, epoch, 0),
			Value: []byte{coldFlagTomb, 1},
		}), nil
	}
	per := c.partPayload(key)
	if per <= 0 {
		return dst, fmt.Errorf("version: key %q too long for cold tier", key)
	}
	nparts := (len(e.value) + per - 1) / per
	if nparts == 0 {
		nparts = 1
	}
	if nparts > 1<<16-1 {
		return dst, fmt.Errorf("version: value for %q too large for cold tier (%d bytes)", key, len(e.value))
	}
	head := make([]byte, 0, 1+binary.MaxVarintLen32)
	head = append(head, 0)
	head = binary.AppendUvarint(head, uint64(nparts))
	for p := 0; p < nparts; p++ {
		lo, hi := p*per, (p+1)*per
		if hi > len(e.value) {
			hi = len(e.value)
		}
		var val []byte
		if p == 0 {
			val = append(append([]byte(nil), head...), e.value[lo:hi]...)
		} else {
			val = append([]byte(nil), e.value[lo:hi]...)
		}
		dst = append(dst, kvstore.KV{Key: c.recordKey(key, epoch, uint16(p)), Value: val})
	}
	return dst, nil
}

// --- read path ---

// runDecoder steps through one key's version run — its records in key
// order, newest version first, a version's parts adjacent — and assembles
// the newest version at or below max. Both readers of a run drive it: get
// over one key's prefix, scan over the whole keyspace, one decoder per key.
type runDecoder struct {
	max   uint64 // the snapshot's epoch: versions above it are skipped
	val   []byte
	epoch uint64 // the version being assembled
	need  int    // its part count; 0 while no version is being assembled
	have  int    // parts collected so far
	live  bool   // decided: val is the key's value
	dead  bool   // decided: a tombstone ends the key
}

// step consumes the run's next record and reports whether the run is decided
// (live or dead); the caller stops feeding a decided run.
func (d *runDecoder) step(epoch uint64, part uint16, v []byte) bool {
	if d.need > 0 && (epoch != d.epoch || int(part) != d.have) {
		// Torn multi-part record (cannot happen for a version at or below
		// the durable watermark — see the crash contract — but degrade to
		// the next older version rather than a false miss).
		d.val, d.need = nil, 0
	}
	if d.need > 0 {
		d.val = append(d.val, v...)
		d.have++
	} else {
		if epoch > d.max || part != 0 || len(v) < 1 {
			return false // above the snapshot, or a torn version's stray part
		}
		if v[0]&coldFlagTomb != 0 {
			d.dead = true
			return true
		}
		n, w := binary.Uvarint(v[1:])
		if w <= 0 || n == 0 {
			return false
		}
		d.epoch, d.need, d.have = epoch, int(n), 1
		d.val = append(d.val, v[1+w:]...)
	}
	d.live = d.have == d.need
	return d.live
}

// get returns the newest cold value for key with epoch <= max. It runs on
// the snapshot read path: one short prefix scan of the key's version run,
// through the read-only kvstore handle. kvstore-level failures count as a
// miss (and are surfaced in Stats.Cold.ReadErrors) — the versioning layer
// has no error channel on Get, and a miss degrades to a refetch upstream.
func (c *coldTier) get(key string, max uint64) ([]byte, bool) {
	c.reads.Add(1)
	d := runDecoder{max: max}
	err := c.rd.ScanPrefix(c.runPrefix(key), func(k, v []byte) bool {
		_, epoch, part, ok := c.parseRecordKey(k)
		return !ok || !d.step(epoch, part, v)
	})
	if err != nil {
		c.readErrs.Add(1)
	}
	if err != nil || !d.live {
		c.readMisses.Add(1)
		return nil, false
	}
	return d.val, true
}

// scan walks the record keyspace yielding each key's newest live record at
// or below max (tombstoned and above-max versions are skipped, multi-part
// values reassembled). fn returning false stops the scan.
func (c *coldTier) scan(max uint64, fn func(key string, value []byte) bool) error {
	var (
		curKey  string
		started bool
		d       runDecoder
	)
	err := c.rd.ScanPrefix(c.recPrefix(), func(k, v []byte) bool {
		key, epoch, part, ok := c.parseRecordKey(k)
		if !ok {
			return true
		}
		if !started || key != curKey {
			curKey, started, d = key, true, runDecoder{max: max}
		}
		if d.live || d.dead {
			return true // the rest of a decided run is older versions
		}
		if d.step(epoch, part, v) && d.live {
			return fn(curKey, d.val)
		}
		return true
	})
	if err != nil {
		c.readErrs.Add(1)
	}
	return err
}

// --- fold ---

// Fold folds the layers at or below the fold floor into the cold tier and
// splices them out of the in-memory chain, returning the number of
// in-memory entries moved to disk. The floor is the pin floor when no
// merged layer spans it, and otherwise the epoch just below that layer —
// no lower than the watermark at which the previous round started. It is
// safe to run concurrently with Publish and snapshot reads (pinned
// snapshots keep their captured chains, and everything folded is at or
// below every pin by construction). Concurrent folds serialise.
func (s *Store) Fold() (int, error) {
	if s.cold == nil {
		return 0, fmt.Errorf("version: store has no cold tier")
	}
	return s.fold()
}

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

// coldRec is one merged record bound for disk.
type coldRec struct {
	e     entry
	epoch uint64
}

// mergeForFold merges the sub-chain from sub down newest-first (first write
// wins), keeping each record's own epoch, and returns it with the number of
// in-memory entries the sub-chain held.
func mergeForFold(sub *layer) (merged map[string]coldRec, resident int) {
	merged = make(map[string]coldRec)
	for l := sub; l != nil; l = l.next {
		resident += len(l.entries)
		for k, e := range l.entries {
			if _, ok := merged[k]; !ok {
				merged[k] = coldRec{e: e, epoch: l.epoch}
			}
		}
	}
	return merged, resident
}

// scanRecords walks every record key once and resets the record count to
// what is on disk at or below wm: Open's recovery path, and the recount a
// fold owes after a round that failed. It returns the keys above wm — a
// torn round's leftovers, which Open purges — and how many keys it examined.
func (c *coldTier) scanRecords(wm uint64) (stale [][]byte, scanned int64, err error) {
	var count int64
	err = c.rd.ScanPrefix(c.recPrefix(), func(k, _ []byte) bool {
		scanned++
		_, epoch, part, ok := c.parseRecordKey(k)
		switch {
		case !ok: // foreign or corrupt key: leave it alone
		case epoch > wm:
			stale = append(stale, append([]byte(nil), k...))
		case part == 0:
			count++
		}
		return true
	})
	if err != nil {
		return nil, scanned, err
	}
	c.records.Store(count)
	return stale, scanned, nil
}

func (s *Store) fold() (reclaimed int, err error) {
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
	wm := c.wm.Load()

	// The sub-chain at or below the floor is immutable, and no new layer can
	// appear below the floor (epochs still publishing are all above the
	// watermark ≥ floor). Layers at or below the durable watermark are
	// resident only after a round that failed past its watermark write; this
	// round writes them again and finishes that one's work.
	sub := descendTo(cur.head, floor)
	if floor <= wm && sub == nil {
		return 0, nil // no new epoch to vouch for, and nothing to move
	}

	// Open the fold round's generation before any record lands: while
	// m/gen is ahead of m/done the archive is "possibly torn" and a
	// reopen falls back to the full purge scan. m/done (written as the
	// round's final step) closes the generation again, which is what lets
	// a clean reopen skip the scan entirely.
	gen := c.gen.Load() + 1
	var genBuf [8]byte
	binary.BigEndian.PutUint64(genBuf[:], gen)
	if err := c.kv.PutBatch([]kvstore.KV{{Key: c.metaKey("gen"), Value: genBuf[:]}}); err != nil {
		return 0, err
	}
	c.gen.Store(gen)

	// Merge the foldable sub-chain outside any store lock, then write the
	// round's records, chunked so concurrent kvstore readers (cold
	// fallthroughs, the engine's RDBMS) interleave between chunks.
	merged, resident := mergeForFold(sub)
	var pairs []kvstore.KV
	for k, r := range merged {
		var err error
		pairs, err = c.appendRecord(pairs, k, r.epoch, r.e)
		if err != nil {
			return 0, err
		}
	}
	// From the first record write until the round completes the running
	// count is behind the disk; an error return anywhere below leaves it
	// marked. A round that found it marked — the one before it failed, and
	// some of what this one writes is that round's records over again — does
	// not add to it: it recounts once the disk has settled.
	recount := c.recount
	c.recount = true
	if err := c.kv.PutBatchChunked(pairs, foldChunk); err != nil {
		return 0, err
	}
	if err := s.foldPoint(FoldAfterWrite); err != nil {
		return 0, err
	}

	// Persist the new watermark: the fold's commit point. It follows every
	// record in WAL order, so "watermark durable" implies "records durable".
	// A round at an unchanged floor re-wrote only already-durable records, so
	// it has nothing to commit.
	if floor > wm {
		var meta [8]byte
		binary.BigEndian.PutUint64(meta[:], floor)
		if err := c.kv.PutBatch([]kvstore.KV{{Key: c.metaKey("wm"), Value: meta[:]}}); err != nil {
			return 0, err
		}
		c.wm.Store(floor)
		if err := s.foldPoint(FoldAfterWatermark); err != nil {
			return 0, err
		}
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

	// Reclaim superseded disk versions. Safe only now: the watermark
	// covering the new versions is durable, so deleting what they shadow
	// can never lose the newest-at-or-below-watermark value, even torn.
	freed, err := s.cleanupSuperseded(merged)
	if err != nil {
		return reclaimed, fmt.Errorf("version: fold cleanup: %w", err)
	}
	if recount {
		if _, _, err := c.scanRecords(floor); err != nil {
			return reclaimed, fmt.Errorf("version: fold recount: %w", err)
		}
	} else {
		c.records.Add(int64(len(merged)) - freed)
	}
	c.recount = false

	// Close the generation: the round is fully complete, so persist the
	// final record count alongside the gen. Failure is tolerated — the only
	// cost is one scan-mode reopen.
	_ = c.kv.PutBatch([]kvstore.KV{{Key: c.metaKey("done"), Value: c.encodeDoneMeta(gen)}})
	return reclaimed, nil
}

// cleanupSuperseded deletes, for every key a fold just rewrote, all older
// disk versions — and, when the newest surviving version is a tombstone,
// the tombstone itself (nothing is left for it to shadow) — and returns how
// many part-0 records it freed. A failure — reading a key's run, or the
// delete, which may have removed some of them — ends the round there with
// the count marked; leftover versions stay invisible behind newer ones, and
// the next fold of the key retries.
func (s *Store) cleanupSuperseded(merged map[string]coldRec) (freed int64, err error) {
	c := s.cold
	var dead [][]byte
	for k, r := range merged {
		var tombRun [][]byte
		err := c.rd.ScanPrefix(c.runPrefix(k), func(key, _ []byte) bool {
			_, epoch, part, ok := c.parseRecordKey(key)
			if !ok {
				return true
			}
			switch {
			case epoch < r.epoch:
				dead = append(dead, append([]byte(nil), key...))
				if part == 0 {
					freed++
				}
			case epoch == r.epoch && r.e.deleted:
				// The key's entire surviving run is this tombstone;
				// delete it last so a torn batch still shadows.
				tombRun = append(tombRun, append([]byte(nil), key...))
				if part == 0 {
					freed++
				}
			}
			return true
		})
		if err != nil {
			return freed, err
		}
		dead = append(dead, tombRun...)
	}
	if len(dead) == 0 {
		return freed, nil
	}
	return freed, c.kv.DeleteBatchChunked(dead, foldChunk)
}

// ColdStats summarises the disk tier.
type ColdStats struct {
	// Watermark is the durable fold watermark: every epoch at or below it
	// survives a crash.
	Watermark uint64
	// Records is the number of record versions on disk (superseded
	// versions included until cleanup reclaims them).
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
	// FoldGen is the current fold-round generation. CleanOpen reports
	// whether the last Open matched m/gen against m/done and skipped the
	// recovery scan; RecoveryScanned is how many record keys that scan
	// examined when it did run (0 on a clean open).
	FoldGen         uint64
	CleanOpen       bool
	RecoveryScanned int64
}

func (c *coldTier) stats() *ColdStats {
	st := &ColdStats{
		Watermark:       c.wm.Load(),
		Records:         c.records.Load(),
		Folds:           c.folds.Load(),
		FoldedEntries:   c.foldedN.Load(),
		FoldErrors:      c.foldErrs.Load(),
		Reads:           c.reads.Load(),
		ReadMisses:      c.readMisses.Load(),
		ReadErrors:      c.readErrs.Load(),
		FoldGen:         c.gen.Load(),
		CleanOpen:       c.cleanOpen,
		RecoveryScanned: c.recoveryScanned,
	}
	if msg := c.lastErr.Load(); msg != nil {
		st.LastFoldError = *msg
	}
	return st
}

// ColdRecords reports the number of live record versions on disk (0 for a
// purely in-memory store).
func (s *Store) ColdRecords() int64 {
	if s.cold == nil {
		return 0
	}
	return s.cold.records.Load()
}

// ColdWatermark reports the durable fold watermark — the highest epoch
// whose records are safely on disk — lock-free, for callers that poll it
// on a hot path (admission control compares it against Watermark to
// measure how far the fold has fallen behind publishes). 0 for purely
// in-memory stores.
func (s *Store) ColdWatermark() uint64 {
	if s.cold == nil {
		return 0
	}
	return s.cold.wm.Load()
}

// Range calls fn for every live key visible in the snapshot with its
// value, in-memory or cold, in unspecified order; each key is yielded
// exactly once (the newest version at or below the snapshot epoch wins).
// fn returning false stops the walk. A cold-tier scan that fails ends the
// walk with that error: what fn saw until then is part of the snapshot,
// not all of it. It panics if the snapshot was released.
func (sn *Snapshot) Range(fn func(key string, value []byte) bool) error {
	return sn.walk("Range", fn)
}

// walk is Range under the name of the operation that asked (Range or Keys):
// the chain first, then the cold tier, whose keys the chain's entries — live
// or tombstone — shadow.
func (sn *Snapshot) walk(op string, fn func(key string, value []byte) bool) error {
	st := sn.view(op)
	seen := make(map[string]bool)
	for l := st.visible(); l != nil; l = l.next {
		for k, e := range l.entries {
			if seen[k] {
				continue
			}
			seen[k] = true
			if !e.deleted && !fn(k, e.value) {
				return nil
			}
		}
	}
	c := sn.s.cold
	if c == nil {
		return nil
	}
	return c.scan(sn.epoch, func(k string, v []byte) bool {
		return seen[k] || fn(k, v)
	})
}
