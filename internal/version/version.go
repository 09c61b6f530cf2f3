// Package version implements the loosely-consistent versioning system the
// Memex paper layers between its RDBMS metadata and its Berkeley-DB-style
// term stores: a single producer (the crawler) publishes batches of derived
// data; several consumers (the indexer and statistical analyzers) read
// immutable snapshots without ever blocking the producer or each other.
//
// # Architecture: sharded copy-on-write epoch layers
//
// The store's published history is partitioned by key hash into N
// independent shard chains. Each chain is an immutable linked list of
// layers, newest first. All N chain heads live together in one immutable
// state reachable from a single atomic.Pointer:
//
//	current ──> state{watermark, shards[0..N)} ──┬─> layer(e=9) ──> layer(e=7) ──> …   (shard 0)
//	                                             └─> layer(e=8) ──> layer(e=5) ──> …   (shard 3)
//
// Each Publish freezes the batch's writes into at most one immutable
// layer per shard (keys are routed by hash at staging time), links them
// into a copy of the shard-head array (the chains and their maps are
// shared, never copied), and installs the new state with one atomic
// store. Publish therefore stays a single atomic cross-shard commit —
// O(batch + N) work, independent of how much data the store holds — and
// a snapshot can never observe half of a batch's shards.
//
// Because nothing reachable from an installed state is ever mutated,
// readers need no locks at all:
//
//   - Acquire is a single atomic load of the current state plus one atomic
//     pin increment. The snapshot owns that state — every shard head —
//     forever after.
//   - Snapshot.Get hashes the key to its shard and walks that shard's
//     captured chain, skipping layers above the snapshot epoch. It never
//     touches a store mutex, so reads scale linearly with reader count,
//     and sharding keeps each walk short: a chain only grows when its own
//     shard is written.
//
// Published epochs are immutable: no publish and no fold ever rewrites a
// record under an installed state. Layers above the store
// (the engine's shared decoded-record cache in internal/core) lean on
// that — an entry cached under its (epoch, key) can only ever be dropped
// (memory pressure, or its epoch falling below PinFloor), never
// invalidated in place.
//   - The producer-side mutex serialises Begin/Publish/Abort and state
//     installs against each other only; consumers never observe it.
//
// # Watermark contiguity
//
// Epochs are allocated by Begin and may complete out of order. The
// watermark — the epoch new snapshots pin — is store-wide and only
// advances over *contiguously* completed epochs (published or aborted).
// A higher epoch that publishes while a lower one is still open is linked
// into its shards' chains but stays invisible (snapshots skip layers
// above their epoch) until the gap closes. This closes the consistency
// hole where a late low-epoch publish would otherwise insert entries
// below an already-pinned snapshot epoch and mutate a live snapshot: a
// pinned snapshot's chains are frozen, and the watermark never ran ahead
// of the gap in the first place.
//
// # Tiering: a bounded hot chain in RAM, the archive on disk
//
//	Publish ──> level-0 layer ──tier: k of a level carry──> level-1 … ──fold──> cold tier
//	                │                                          │                   │
//	Snapshot.Get ───┴── chain walk, at most (k-1) per level ───┴── miss ───────────┴─> kvstore read
//
// The hot chain is a counter. Every Publish, under the producer lock it
// already holds, keeps each shard it touched a base-k number (k is
// tierFanout): a published layer is level 0, and once k layers of one
// level lead the visible chain they merge, newest first, into one
// immutable layer of the next level (see tier). A snapshot therefore
// walks at most (k-1)·(⌊log_k publishes⌋+1) layers plus the not-yet-
// visible prefix — one layer per batch published above a still open
// epoch, so no longer than there are publishers running at once — each
// entry is copied at most ⌊log_k publishes⌋ times, and none of it touches
// the disk: the merge builds new layers beside the old ones and installs
// them behind the one atomic pointer like any other state, so Get stays
// lock-free and a pinned snapshot keeps the chains it captured.
//
// What a RAM merge must respect, and what it may leave to the fold:
//
//   - the watermark. A merged layer carries its newest member's epoch, so
//     merging a layer above the watermark would hide the older members
//     from every current snapshot (Get passes over what is above its epoch).
//     At or below the watermark it is invisible: the state being
//     installed and every later one pin at or above that epoch and would
//     have read all the members anyway.
//   - the tier fence: the watermark at which the newest fold started
//     (Store.tierFence, set in the critical section in which the fold
//     captures its chains). A fold writes the sub-chain at or below its
//     floor outside the lock and afterwards recognises it by pointer to
//     splice it out. The floor never exceeds that watermark, so the fence
//     covers them, and tier is the only thing that ever replaces a layer:
//     no layer spans the fence, and a fold always finds what it captured.
//   - not the pin floor — no reader needs it. A snapshot pinned below a
//     merged layer's epoch never reads that layer: it holds the state it
//     pinned, whose chains no later install touches.
//
// A merge across a pinned epoch does bind the fold, which works in whole
// layers: it can neither write nor splice out half of one. Every layer
// records the oldest epoch merged into it (layer.oldest), and a fold
// lowers its floor from the pin floor until no layer's [oldest, epoch]
// range contains it (foldFloorLocked), because the watermark the fold
// persists vouches for every batch at or below it in every shard; a floor
// inside a merged layer would put other shards' halves of those batches on
// disk, call them durable, and leave this shard's half in RAM for a crash
// to tear off. Shards carry out of step, so one spanned pin can push the
// floor through layer after layer; what stops the fall is the fence, which
// no merge ever crosses. A fold under constant reader load therefore
// trails the watermark by at most one round more than a fold with nothing
// pinned, and with nothing pinned the floor is the watermark itself, which
// no layer spans.
//
// The fold needs the pin floor as its ceiling, because it does what a RAM
// merge never does: it removes data. A store opened with Open (as opposed
// to NewStore) has a cold tier — the kvstore B+tree keyspace — below every
// chain. GC folds everything at or below the fold floor to disk and
// splices it out of the chains, so RAM holds only the data published
// since the last fold — the archive grows on disk, not in the heap — and
// then deletes the disk versions the folded ones supersede. A snapshot
// pinned below the floor would look for exactly those versions. Reads fall
// through a missed chain walk to a read-only kvstore handle; because the
// fold floor never exceeds the minimum pinned epoch, every cold record is
// at or below every live snapshot's epoch, and the in-memory chains (which
// a pinned snapshot captured immutably) shadow the cold tier for every key
// they contain — so the fallthrough needs no coordination with folds. On
// reopen the store recovers the durable fold watermark, purges any record
// a torn fold left above it, and resumes publishing at watermark+1 (see
// cold.go for the crash contract).
//
// # Reclamation
//
// The store has two merges. tier, at Publish, bounds read depth and
// drops the versions superseded inside a run; it is all the reclamation a
// store without a cold tier (NewStore) has, and GC on such a store does
// nothing. fold, at the GC tick, bounds memory: GC folds once foldMinEntries
// entries sit at or below the pin floor, and Fold and Close fold whatever is
// there. Snapshots pinned on older states keep their captured chains either
// way, so neither merge is ever a data hazard.
//
// Consistency guarantee (verified by experiment E9): a snapshot never
// observes a partially published batch — across shards too — and two
// reads of the same key from one snapshot always agree.
package version

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// entry is one staged or published value. A zero-length chain position
// never exists: absence of the key in every layer means "never written".
type entry struct {
	value   []byte
	deleted bool
}

// layer is one shard's slice of a published batch frozen as an immutable
// map. next points at the next-older layer in the same shard (strictly
// smaller epoch). No field is ever written after the layer is linked
// into an installed state.
type layer struct {
	epoch uint64
	// oldest is the lowest epoch of any batch merged into the layer (epoch
	// itself for a published batch), so the layer stands for its shard's
	// writes in [oldest, epoch]. A fold may write and splice whole layers
	// only, so its floor must not fall inside such a range (foldFloorLocked).
	oldest  uint64
	entries map[string]entry
	// level is the layer's digit position in its shard's base-tierFanout
	// counter (see tier): 0 for a published batch, ℓ+1 for a merge of at
	// least tierFanout layers of level ℓ — so a level-ℓ layer holds at
	// least tierFanout^ℓ batches.
	level uint8
	next  *layer
}

// relinked returns a copy of l (entries shared) linked onto next: the
// path-copy step for every chain edit below an existing layer.
func relinked(l, next *layer) *layer {
	return &layer{epoch: l.epoch, oldest: l.oldest, entries: l.entries, level: l.level, next: next}
}

// descendTo returns the first layer of the chain with epoch <= target, or
// nil. A plain walk: above a watermark lies the not-yet-visible prefix (one
// layer per batch published over a still open epoch), above a fold's floor
// the tiered spine.
func descendTo(head *layer, target uint64) *layer {
	l := head
	for l != nil && l.epoch > target {
		l = l.next
	}
	return l
}

// lastAbove returns the last layer of the chain with epoch > target — the
// one whose next is descendTo's answer. head.epoch must be above target.
func lastAbove(head *layer, target uint64) *layer {
	l := head
	for l.next != nil && l.next.epoch > target {
		l = l.next
	}
	return l
}

// state is one immutable published view of the store: the watermark plus
// the chain head of every key-hash shard. pins counts the snapshots
// currently holding it (used only as the fold's ceiling — correctness of
// pinned reads never depends on it).
type state struct {
	watermark uint64
	shards    []*layer
	pins      atomic.Int64
}

// Store is an in-memory multi-version key-value map with watermark
// publication, sharded by key hash. The Memex demons keep derived
// statistics here; bulk data lives in kvstore, keyed by epoch, with
// Store coordinating visibility.
type Store struct {
	current atomic.Pointer[state]
	// mask is nshards-1 (shard count is a power of two), applied to the
	// key hash. Immutable after NewStore.
	mask uint32

	// mu guards the producer/install side only: epoch allocation, the
	// completed-epoch set, the pinned-state history, and state installs.
	// Snapshot reads never acquire it, and a fold holds it only to capture
	// the chains and for the final splice, not while it writes.
	mu        sync.Mutex
	nextEpoch uint64
	// completed holds published/aborted epochs above the watermark,
	// waiting for the gap below them to close.
	completed map[uint64]bool
	// history lists states that may still be pinned (plus the current
	// one). Every install appends; a publish that merged, a fold and the
	// maxHistory backstop prune unpinned entries.
	history     []*state
	gcReclaimed uint64
	// tierFence is the watermark at which the newest fold started; tier
	// leaves every layer at or below it alone. That fold's layers (all at
	// or below its floor, which the watermark bounds) may be on their way
	// to disk, identified by pointer; and an epoch no merge spans is one
	// the next fold's floor can fall back to, whatever was merged across
	// the pins above it (foldFloorLocked).
	tierFence uint64

	// cold is the disk tier (nil for purely in-memory stores). foldMu
	// serialises fold rounds; foldHook is the crash-injection point for
	// recovery tests. Lock order: foldMu before mu.
	cold     *coldTier
	foldMu   sync.Mutex
	foldHook func(FoldPoint) error
}

// DefaultShards is the shard count NewStore uses: enough for short chains
// and a parallel fold merge without bloating tiny stores' states.
const DefaultShards = 8

// maxHistory bounds how many superseded states Publish tolerates before
// pruning unpinned ones inline (a tier merge and a fold prune too; this is
// the backstop for stores that publish heavily without either).
const maxHistory = 1024

// tierFanout is k, the base of the per-shard layer counter tier keeps: a
// visible chain is at most (k-1)·(⌊log_k(publishes)⌋+1) layers deep and
// each entry is copied at most ⌊log_k(publishes)⌋ times. 16 keeps the
// post-burst read walk near 20 layers at three copies per entry; 8 would
// halve the walk for a fourth copy.
const tierFanout = 16

// NewStore returns an empty versioned store at watermark 0 with
// DefaultShards shards.
func NewStore() *Store {
	return NewStoreSharded(DefaultShards)
}

// NewStoreSharded returns an empty store partitioned into the given
// number of shards (rounded up to a power of two; n <= 0 means
// DefaultShards). More shards shorten chains; a single shard reproduces
// the unsharded PR 1 layout exactly.
func NewStoreSharded(n int) *Store {
	if n <= 0 {
		n = DefaultShards
	}
	pow := 1
	for pow < n {
		pow <<= 1
	}
	s := &Store{
		mask:      uint32(pow - 1),
		nextEpoch: 1,
		completed: make(map[uint64]bool),
	}
	st := &state{shards: make([]*layer, pow)}
	s.current.Store(st)
	s.history = append(s.history, st)
	return s
}

// Shards returns the store's shard count.
func (s *Store) Shards() int { return int(s.mask) + 1 }

// shardOf routes a key to its shard (FNV-1a, masked). Inlined into the
// read path, so it must stay allocation-free.
func (s *Store) shardOf(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return h & s.mask
}

type batchStage uint8

const (
	batchActive batchStage = iota
	batchPublished
	batchAborted
)

// Batch stages writes for one epoch, already routed to their shards.
// Batches are created by the single producer; creating a batch does not
// block consumers. A Batch is not safe for concurrent use; distinct
// batches are.
type Batch struct {
	s     *Store
	epoch uint64
	// writes[i] holds the staged entries bound for shard i (nil when the
	// batch never touched that shard).
	writes []map[string]entry
	n      int
	hint   int
	stage  batchStage
}

// Begin opens a new batch at the next epoch. Only one producer may be
// active; Begin enforces nothing about callers, matching the paper's
// single-producer design, but concurrent batches are safe — they simply
// publish in epoch order acquired here, and the watermark waits for the
// slowest of them (see the contiguity rule in the package doc).
func (s *Store) Begin() *Batch {
	return s.BeginSized(0)
}

// BeginSized is Begin with a capacity hint for the number of staged
// writes, sparing the producer incremental map growth on hot batches.
// The hint is spread across the shards the batch actually touches.
func (s *Store) BeginSized(hint int) *Batch {
	s.mu.Lock()
	epoch := s.nextEpoch
	s.nextEpoch++
	s.mu.Unlock()
	return &Batch{s: s, epoch: epoch, writes: make([]map[string]entry, s.mask+1), hint: hint}
}

// mustActive panics when the batch has already been published or aborted.
// Staging into a finished batch was previously either a nil-map panic
// (after Abort) or a silent no-op whose writes never landed (after
// Publish); both are programming errors and now fail loudly the same way.
func (b *Batch) mustActive(op string) {
	switch b.stage {
	case batchPublished:
		panic("version: " + op + " on already-published batch")
	case batchAborted:
		panic("version: " + op + " on aborted batch")
	}
}

// stage records one write in its shard's staging map.
func (b *Batch) put(key string, e entry) {
	if b.s.cold != nil && len(key) > MaxColdKeyLen {
		// Fail at publish time, loudly, like other Batch misuse: an
		// oversized key would otherwise poison every future fold.
		panic(fmt.Sprintf("version: key %d bytes long exceeds MaxColdKeyLen=%d for a disk-backed store", len(key), MaxColdKeyLen))
	}
	i := b.s.shardOf(key)
	m := b.writes[i]
	if m == nil {
		// Size for the optimistic case that the whole hint lands in few
		// shards; Go maps over-allocated this way just waste a bucket.
		per := b.hint / (int(b.s.mask) + 1)
		if per < 4 {
			per = 4
		}
		m = make(map[string]entry, per)
		b.writes[i] = m
	}
	if _, seen := m[key]; !seen {
		b.n++
	}
	m[key] = e
}

// Put stages key→value in the batch. It panics if the batch was already
// published or aborted.
func (b *Batch) Put(key string, value []byte) {
	b.mustActive("Put")
	b.put(key, entry{value: value})
}

// Delete stages a tombstone for key. It panics if the batch was already
// published or aborted.
func (b *Batch) Delete(key string) {
	b.mustActive("Delete")
	b.put(key, entry{deleted: true})
}

// Len returns the number of staged writes.
func (b *Batch) Len() int { return b.n }

// Epoch returns the epoch this batch will publish at.
func (b *Batch) Epoch() uint64 { return b.epoch }

// Publish freezes the batch into at most one immutable layer per touched
// shard, links them into a copy of the shard-head array, and — when every
// lower epoch has completed — atomically advances the watermark so new
// snapshots observe it. The install is one atomic store, so the commit is
// all-or-nothing across shards, and Publish never blocks or invalidates
// concurrent snapshot reads.
func (b *Batch) Publish() error {
	switch b.stage {
	case batchPublished:
		return fmt.Errorf("version: batch already published")
	case batchAborted:
		return fmt.Errorf("version: batch already aborted")
	}
	b.stage = batchPublished
	writes := b.writes
	b.writes = nil // the layers own the maps now; Put would panic anyway

	// Freeze the per-shard layers outside the lock: the batch owns its
	// staging maps, so this is safe, and it keeps the critical section at
	// O(touched shards) pointer work plus the amortised tier merge.
	var layers []*layer // one slot per shard; nil while the batch is empty
	for i, m := range writes {
		if len(m) == 0 {
			continue
		}
		if layers == nil {
			layers = make([]*layer, len(writes))
		}
		layers[i] = &layer{epoch: b.epoch, oldest: b.epoch, entries: m}
	}

	s := b.s
	s.mu.Lock()
	defer s.mu.Unlock()
	s.completeLocked(b.epoch, layers)
	return nil
}

// Abort discards the batch. The epoch still counts as completed so an
// abandoned batch cannot stall the watermark forever. Abort after Publish
// is a no-op (supporting `defer b.Abort()` cleanup patterns).
func (b *Batch) Abort() {
	if b.stage != batchActive {
		return
	}
	b.stage = batchAborted
	b.writes = nil
	s := b.s
	s.mu.Lock()
	defer s.mu.Unlock()
	s.completeLocked(b.epoch, nil)
}

// completeLocked marks epoch completed, links its frozen layers (one slot
// per shard, nil where the batch wrote nothing; no slice at all for an
// empty or aborted batch), advances the watermark over contiguously
// completed epochs, re-tiers every shard that gained a visible layer, and
// installs the new state when anything changed. Caller holds mu.
func (s *Store) completeLocked(epoch uint64, layers []*layer) {
	cur := s.current.Load()
	s.completed[epoch] = true
	wm := cur.watermark
	for s.completed[wm+1] {
		delete(s.completed, wm+1)
		wm++
	}
	if wm == cur.watermark && layers == nil {
		return
	}
	shards := slices.Clone(cur.shards)
	for i, l := range layers {
		if l != nil {
			shards[i] = insertLayer(shards[i], l)
		}
	}
	merged := false
	if wm > cur.watermark {
		// A watermark that moved onto this epoch alone made only this
		// batch's layers visible; one that also swallowed epochs completed
		// earlier may have uncovered layers in any shard.
		alone := wm == epoch && wm == cur.watermark+1
		for i := range shards {
			if alone && (layers == nil || layers[i] == nil) {
				continue
			}
			head, reclaimed := tier(shards[i], s.tierFence, wm)
			merged = merged || head != shards[i]
			shards[i] = head
			s.gcReclaimed += uint64(reclaimed)
		}
	}
	next := &state{watermark: wm, shards: shards}
	s.current.Store(next)
	s.history = append(s.history, next)
	// A merge copied its members' entries into a new map; the superseded
	// states are what still reaches the members, so they go now — unless
	// pinned — rather than at the next fold, or RAM holds the run twice.
	if merged || len(s.history) > maxHistory {
		s.pruneHistoryLocked(next)
	}
}

// tier keeps the part of one shard's chain that a snapshot at watermark wm
// reads and that lies above the tier fence — epochs in (fence, wm] — a
// base-tierFanout counter, and returns the new head with the number of
// superseded versions the merge dropped. Levels never decrease down that
// part (new layers arrive on top at level 0, and a merge always swallows
// the whole run above its result). Adding layers on top is an increment:
// once tierFanout layers of level ℓ or lower lead the part, they carry
// into one layer of level ℓ+1 — all of them, not tierFanout of them, so a
// watermark jump that uncovers hundreds of layers at once leaves none
// stranded under a higher level — and the carry repeats one level up with
// that layer counted in. So at rest each level holds fewer than tierFanout
// layers, and a level-ℓ layer holds at least tierFanout^ℓ batches, which
// together give the depth and copy bounds stated at tierFanout.
//
// The cascade is planned on the levels alone and executed as one merge,
// newest-first (first write wins), so an entry is copied once however many
// levels the carry climbs. Tombstones stay: deeper layers or the cold tier
// may hold what they shadow. The result carries its newest member's epoch.
// That is sound for every reader because the part is at or below wm: the
// state being installed, and every later one, pins at or above that epoch
// and would have read all of the members anyway, while snapshots pinned
// earlier keep the chains they captured. It is unsound at or below the
// fence for a different reason: a fold recognises the sub-chain it wrote by
// pointer, and leans on the fence as an epoch no layer spans.
func tier(head *layer, fence, wm uint64) (*layer, int) {
	top := descendTo(head, wm)
	// Plan: the layers from top down to end (exclusive) merge into one
	// layer of level lvl; nothing merges while end is still top.
	lvl, end := uint8(0), top
	for {
		e, run := end, 0
		if end != top {
			run = 1 // the planned layer itself sits at level lvl
		}
		for e != nil && e.epoch > fence && e.level <= lvl {
			e = e.next
			run++
		}
		if run < tierFanout {
			break
		}
		lvl, end = lvl+1, e
	}
	if end == top {
		return head, 0
	}
	merged, members := mergeRun(top, end, lvl)
	merged.next = end
	return spliceAbove(head, top, merged), members - len(merged.entries)
}

// mergeRun merges the layers from top down to end (exclusive) into one
// unlinked layer of the given level under top's epoch — newest first, the
// first write of a key wins, tombstones kept — and also returns how many
// entries the members held between them.
func mergeRun(top, end *layer, level uint8) (merged *layer, members int) {
	oldest := top.oldest
	for l := top; l != end; l = l.next {
		members += len(l.entries)
		oldest = l.oldest
	}
	merged = &layer{epoch: top.epoch, oldest: oldest, entries: make(map[string]entry, members), level: level}
	for l := top; l != end; l = l.next {
		for k, e := range l.entries {
			if _, shadowed := merged.entries[k]; shadowed {
				continue
			}
			merged.entries[k] = e
		}
	}
	return merged, members
}

// pruneHistoryLocked drops superseded states no snapshot is pinning.
// Caller holds mu.
func (s *Store) pruneHistoryLocked(cur *state) {
	live := s.history[:0]
	for _, st := range s.history {
		if st == cur || st.pins.Load() > 0 {
			live = append(live, st)
		}
	}
	for i := len(live); i < len(s.history); i++ {
		s.history[i] = nil
	}
	s.history = live
}

// insertLayer links l into the newest-first chain, path-copying only the
// spine nodes above it (their entry maps are shared). In the common
// in-order case l becomes the new head in O(1); an out-of-order publish
// copies one node per already-published higher epoch in l's shard.
func insertLayer(head *layer, l *layer) *layer {
	below := descendTo(head, l.epoch)
	l.next = below
	return spliceAbove(head, below, l)
}

// Snapshot is a consistent read view pinned at one epoch. Get and Keys
// are lock-free: they walk the snapshot's own captured shard chains,
// which no publish or fold ever mutates.
type Snapshot struct {
	s     *Store
	st    *state
	epoch uint64
}

// Acquire pins a snapshot at the current watermark: one atomic load plus
// one atomic pin increment, never a lock. The captured state holds every
// shard's chain head, so the view is cross-shard consistent by
// construction.
func (s *Store) Acquire() *Snapshot {
	st := s.current.Load()
	st.pins.Add(1)
	return &Snapshot{s: s, st: st, epoch: st.watermark}
}

// Epoch returns the snapshot's pinned epoch (valid even after Release).
func (sn *Snapshot) Epoch() uint64 { return sn.epoch }

// view returns the pinned state or fails loudly on use-after-Release.
// Before this check a released snapshot would silently read whatever the
// store had folded out from under it; now misuse is an immediate diagnostic.
func (sn *Snapshot) view(op string) *state {
	st := sn.st
	if st == nil {
		panic("version: " + op + " on released snapshot")
	}
	return st
}

// Get returns the newest value for key with epoch <= the snapshot epoch.
// It hashes the key to its shard and walks only that chain; on a miss it
// falls through to the cold tier (when one is attached), whose records
// are all at or below every live snapshot's epoch by the fold-floor rule.
// The hot path stays lock-free; only a genuine chain miss pays the disk
// read. It panics if the snapshot was released.
func (sn *Snapshot) Get(key string) ([]byte, bool) {
	st := sn.view("Get")
	shard := sn.s.shardOf(key)
	// Skip the not-yet-visible prefix (epochs published above a still open
	// lower epoch); the chain below is strictly epoch-descending, so no
	// per-layer epoch check is needed after.
	for l := descendTo(st.shards[shard], st.watermark); l != nil; l = l.next {
		if e, ok := l.entries[key]; ok {
			if e.deleted {
				return nil, false
			}
			return e.value, true
		}
	}
	if c := sn.s.cold; c != nil {
		return c.get(shard, key, sn.epoch)
	}
	return nil, false
}

// Keys returns all live keys visible in the snapshot, sorted, across all
// shards and both tiers (a chain entry — live or tombstone — shadows any
// cold version of its key). It panics if the snapshot was released.
func (sn *Snapshot) Keys() []string {
	st := sn.view("Keys")
	var keys []string
	for i := range st.shards {
		seen := make(map[string]bool)
		for l := descendTo(st.shards[i], st.watermark); l != nil; l = l.next {
			for k, e := range l.entries {
				if seen[k] {
					continue
				}
				seen[k] = true
				if !e.deleted {
					keys = append(keys, k)
				}
			}
		}
		if sn.s.cold != nil {
			keys = sn.coldKeys(uint32(i), seen, keys)
		}
	}
	sort.Strings(keys)
	return keys
}

// Release unpins the snapshot, letting the fold move past its epoch and the
// runtime reclaim its layers. Release is idempotent; Get/Keys after
// Release panic.
func (sn *Snapshot) Release() {
	if sn.st == nil {
		return
	}
	sn.st.pins.Add(-1)
	sn.st = nil
}

// Watermark returns the current published epoch (lock-free).
func (s *Store) Watermark() uint64 {
	return s.current.Load().watermark
}

// PinFloor returns the minimum epoch any pinned snapshot may still be
// reading — the ceiling the cold fold respects.
// Cache layers above the store (e.g. the engine's decoded-record cache)
// use it to drop entries no live view can reference anymore; published
// epochs are immutable, so that eviction is the only invalidation they
// ever need.
func (s *Store) PinFloor() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pinFloorLocked(s.current.Load())
}

// pinFloorLocked computes the minimum epoch any pinned snapshot may still
// be reading. Caller holds mu.
func (s *Store) pinFloorLocked(cur *state) uint64 {
	s.pruneHistoryLocked(cur)
	floor := cur.watermark
	for _, st := range s.history {
		if st.pins.Load() > 0 && st.watermark < floor {
			floor = st.watermark
		}
	}
	return floor
}

// foldFloorLocked returns the floor a fold of cur may use: the highest epoch
// at or below the pin floor that no layer's [oldest, epoch] range contains
// without ending there. A fold writes and splices whole layers, and the
// watermark it persists promises that every batch at or below it is on disk
// in every shard; a floor inside a merged layer's range would leave that
// layer's older batches in RAM while other shards' layers of the same
// epochs went to disk under that promise. Tiering merges across pinned
// epochs, so the pin floor can sit inside such a range; the floor then drops
// below the range, which may land it inside another shard's, until it rests
// at an epoch every chain splits at. Each chain's ranges are disjoint and
// descending, so only the last layer above the floor can reach it. Caller
// holds mu.
func (s *Store) foldFloorLocked(cur *state) uint64 {
	floor := s.pinFloorLocked(cur)
	for lowered := true; lowered; {
		lowered = false
		for _, head := range cur.shards {
			if head == nil || head.epoch <= floor {
				continue
			}
			if l := lastAbove(head, floor); l.oldest <= floor {
				floor = l.oldest - 1
				lowered = true
			}
		}
	}
	return floor
}

// GC is the periodic reclamation tick. With a cold tier it folds to disk once
// at least foldMinEntries entries sit at or below the pin floor, and returns
// how many left memory; below that it writes nothing (Fold and Close ignore
// the threshold). A failed fold keeps its layers resident and is counted in
// ColdStats.FoldErrors. On a store without a cold tier GC does nothing:
// Publish's tiering is all the reclamation such a store has.
func (s *Store) GC() int {
	if s.cold == nil || s.foldableEntries() < foldMinEntries {
		return 0
	}
	n, _ := s.fold()
	return n
}

// splitAt returns the first layer of the chain with epoch <= floor (the
// immutable sub-chain a fold moves), or nil.
func splitAt(head *layer, floor uint64) *layer {
	return descendTo(head, floor)
}

// spliceAbove rebuilds the spine of layers strictly above oldBottom
// (path-copied, maps shared) on top of newBottom and returns the new head.
// oldBottom must be in the chain (or nil, for its end).
func spliceAbove(head, oldBottom, newBottom *layer) *layer {
	if head == oldBottom {
		return newBottom
	}
	var above []*layer
	for cur := head; cur != oldBottom; cur = cur.next {
		above = append(above, cur)
	}
	newHead := newBottom
	for i := len(above) - 1; i >= 0; i-- {
		newHead = relinked(above[i], newHead)
	}
	return newHead
}

// VersionCount reports the total number of stored versions across every
// shard of the current state (for E9 and the fold tests). Lock-free.
func (s *Store) VersionCount() int {
	st := s.current.Load()
	n := 0
	for i := range st.shards {
		for l := st.shards[i]; l != nil; l = l.next {
			n += len(l.entries)
		}
	}
	return n
}

// ShardStats summarises one shard's chain.
type ShardStats struct {
	// Layers is the shard's chain length: the tiered visible part plus
	// any not-yet-visible prefix.
	Layers int
	// Entries is the shard's total version count.
	Entries int
}

// Stats is a point-in-time summary of the store's shape.
type Stats struct {
	// Watermark is the highest contiguously published epoch.
	Watermark uint64
	// Layers is the deepest shard chain — the worst-case read walk.
	Layers int
	// Entries is the total version count across all shards.
	Entries int
	// Pinned is the number of snapshots currently holding a state.
	Pinned int
	// PendingEpochs counts published/aborted epochs still waiting for a
	// lower epoch to complete before the watermark can cover them.
	PendingEpochs int
	// GCReclaimed is the cumulative number of versions dropped from
	// memory: superseded inside a tier merge, or folded to disk.
	GCReclaimed uint64
	// Shards is the per-shard breakdown (length = shard count).
	Shards []ShardStats
	// Cold summarises the disk tier (nil for purely in-memory stores).
	Cold *ColdStats
}

// StoreStats returns current store statistics.
func (s *Store) StoreStats() Stats {
	// Only the producer-side bookkeeping needs s.mu. The shard-chain walk
	// below is O(shards × layers) and runs against an installed state,
	// which is immutable — holding the producer lock across it would
	// stall every publisher behind a stats poll, so it happens off-lock.
	// The two halves may straddle a concurrent publish; Stats is a
	// point-in-time summary, not a consistent cut.
	s.mu.Lock()
	st := Stats{
		PendingEpochs: len(s.completed),
		GCReclaimed:   s.gcReclaimed,
	}
	for _, h := range s.history {
		st.Pinned += int(h.pins.Load())
	}
	s.mu.Unlock()

	cur := s.current.Load()
	st.Watermark = cur.watermark
	st.Shards = make([]ShardStats, len(cur.shards))
	for i := range cur.shards {
		sh := &st.Shards[i]
		for l := cur.shards[i]; l != nil; l = l.next {
			sh.Layers++
			sh.Entries += len(l.entries)
		}
		st.Entries += sh.Entries
		if sh.Layers > st.Layers {
			st.Layers = sh.Layers
		}
	}
	if s.cold != nil {
		st.Cold = s.cold.stats()
	}
	return st
}
