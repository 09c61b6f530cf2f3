// Package version implements the loosely-consistent versioning system the
// Memex paper layers between its RDBMS metadata and its Berkeley-DB-style
// term stores: a single producer (the crawler) publishes batches of derived
// data; several consumers (the indexer and statistical analyzers) read
// immutable snapshots without ever blocking the producer or each other.
//
// # Architecture: one copy-on-write chain of epoch layers
//
// The store's published history is one immutable linked list of layers,
// newest first. Its head lives in an immutable state reachable from a single
// atomic.Pointer:
//
//	current ──> state{watermark, head} ──> layer(e=9) ──> layer(e=8) ──> layer(e=5) ──> …
//
// Each Publish freezes the batch's writes into at most one immutable layer,
// links it onto the chain (path-copying only the layers above it, whose maps
// are shared, never copied), and installs the new state with one atomic
// store. Publish is therefore a single atomic commit — O(batch) work plus
// the amortised tier merge, independent of how much data the store holds —
// and a snapshot can never observe half of a batch.
//
// Because nothing reachable from an installed state is ever mutated,
// readers need no locks at all:
//
//   - Acquire is a single atomic load of the current state plus one atomic
//     pin increment. The snapshot owns that state — and its chain — forever
//     after.
//   - Snapshot.Get walks the captured chain, skipping layers above the
//     snapshot epoch. It never touches a store mutex, so reads scale
//     linearly with reader count; tiering keeps the walk short.
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
// watermark — the epoch new snapshots pin — only advances over
// *contiguously* completed epochs (published or aborted). A higher epoch
// that publishes while a lower one is still open is linked into the chain
// but stays invisible (snapshots skip layers above their epoch) until the
// gap closes. This closes the consistency hole where a late low-epoch
// publish would otherwise insert entries below an already-pinned snapshot
// epoch and mutate a live snapshot: a pinned snapshot's chain is frozen,
// and the watermark never ran ahead of the gap in the first place.
//
// # Tiering: a bounded hot chain in RAM, the archive on disk
//
//	Publish ──> level-0 layer ──tier: k of a level carry──> level-1 … ──fold──> cold tier
//	                │                                          │                   │
//	Snapshot.Get ───┴── chain walk, at most (k-1) per level ───┴── miss ───────────┴─> kvstore read
//
// The hot chain is a counter. Every Publish, under the producer lock it
// already holds, keeps the chain a base-k number (k is tierFanout): a
// published layer is level 0, and once k layers of one level lead the
// visible chain they merge, newest first, into one immutable layer of the
// next level (see tier). A snapshot therefore walks at most
// (k-1)·(⌊log_k publishes⌋+1) layers plus the not-yet-visible prefix — one
// layer per batch published above a still open epoch, so no longer than
// there are publishers running at once — each entry is copied at most
// ⌊log_k publishes⌋ times, and none of it touches the disk: the merge builds
// new layers beside the old ones and installs them behind the one atomic
// pointer like any other state, so Get stays lock-free and a pinned
// snapshot keeps the chain it captured.
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
//     captures the chain). A fold writes the sub-chain at or below its
//     floor outside the lock and afterwards recognises it by pointer to
//     splice it out. The floor never exceeds that watermark, so the fence
//     covers it, and tier is the only thing that ever replaces a layer:
//     no layer spans the fence, and a fold always finds what it captured.
//   - not the pin floor — no reader needs it. A snapshot pinned below a
//     merged layer's epoch never reads that layer: it holds the state it
//     pinned, whose chain no later install touches.
//
// A merge across a pinned epoch does bind the fold, which works in whole
// layers: it can neither write nor splice out half of one. Every layer
// records the oldest epoch merged into it (layer.oldest), and a fold whose
// pin floor falls inside a layer's [oldest, epoch] range lowers its floor to
// just below that range (foldFloorLocked), because the watermark the fold
// persists vouches for every batch at or below it; a floor inside a merged
// layer would call the layer's older batches durable while they stayed in
// RAM for a crash to tear off. The chain's ranges are disjoint and
// descending, so one step down is enough, and the fence, which no merge
// crosses, bounds it: a fold under constant reader load trails the
// watermark by at most one round more than a fold with nothing pinned, and
// with nothing pinned the floor is the watermark itself, which no layer
// spans.
//
// The fold needs the pin floor as its ceiling, because it does what a RAM
// merge never does: it removes data. A store opened with Open (as opposed
// to NewStore) has a cold tier — the kvstore B+tree keyspace — below the
// chain. GC folds everything at or below the fold floor to disk and
// splices it out of the chain, so RAM holds only the data published
// since the last fold — the archive grows on disk, not in the heap — and
// then deletes the disk versions the folded ones supersede. A snapshot
// pinned below the floor would look for exactly those versions. Reads fall
// through a missed chain walk to a read-only kvstore handle; because the
// fold floor never exceeds the minimum pinned epoch, every cold record is
// at or below every live snapshot's epoch, and the in-memory chain (which
// a pinned snapshot captured immutably) shadows the cold tier for every key
// it contains — so the fallthrough needs no coordination with folds. On
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
// observes a partially published batch, and two reads of the same key from
// one snapshot always agree.
package version

import (
	"fmt"
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

// layer is a published batch frozen as an immutable map. next points at the
// next-older layer (strictly smaller epoch). No field is ever written after
// the layer is linked into an installed state.
type layer struct {
	epoch uint64
	// oldest is the lowest epoch of any batch merged into the layer (epoch
	// itself for a published batch), so the layer stands for the writes of
	// [oldest, epoch]. A fold may write and splice whole layers only, so its
	// floor must not fall inside such a range (foldFloorLocked).
	oldest  uint64
	entries map[string]entry
	// level is the layer's digit position in the chain's base-tierFanout
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
// the chain head. pins counts the snapshots currently holding it (used only
// as the fold's ceiling — correctness of pinned reads never depends on it).
type state struct {
	watermark uint64
	head      *layer
	pins      atomic.Int64
}

// Store is an in-memory multi-version key-value map with watermark
// publication. The Memex demons keep derived statistics here; bulk data
// lives in kvstore, keyed by epoch, with Store coordinating visibility.
type Store struct {
	current atomic.Pointer[state]

	// mu guards the producer/install side only: epoch allocation, the
	// completed-epoch set, the pinned-state history, and state installs.
	// Snapshot reads never acquire it, and a fold holds it only to capture
	// the chain and for the final splice, not while it writes.
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
	// to disk, identified by pointer; and an epoch no merge spans bounds
	// how far the next fold's floor can fall (foldFloorLocked).
	tierFence uint64

	// cold is the disk tier (nil for purely in-memory stores). foldMu
	// serialises fold rounds; foldHook is the crash-injection point for
	// recovery tests. Lock order: foldMu before mu.
	cold     *coldTier
	foldMu   sync.Mutex
	foldHook func(FoldPoint) error
}

// maxHistory bounds how many superseded states Publish tolerates before
// pruning unpinned ones inline (a tier merge and a fold prune too; this is
// the backstop for stores that publish heavily without either).
const maxHistory = 1024

// tierFanout is k, the base of the layer counter tier keeps: a visible
// chain is at most (k-1)·(⌊log_k(publishes)⌋+1) layers deep and each entry
// is copied at most ⌊log_k(publishes)⌋ times. 16 keeps the post-burst read
// walk near 20 layers at three copies per entry; 8 would halve the walk for
// a fourth copy.
const tierFanout = 16

// NewStore returns an empty versioned store at watermark 0.
func NewStore() *Store {
	s := &Store{
		nextEpoch: 1,
		completed: make(map[uint64]bool),
	}
	st := &state{}
	s.current.Store(st)
	s.history = append(s.history, st)
	return s
}

type batchStage uint8

const (
	batchActive batchStage = iota
	batchPublished
	batchAborted
)

// Batch stages writes for one epoch. Batches are created by the single
// producer; creating a batch does not block consumers. A Batch is not safe
// for concurrent use; distinct batches are.
type Batch struct {
	s     *Store
	epoch uint64
	// writes holds the staged entries (nil until the first Put or Delete).
	writes map[string]entry
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
func (s *Store) BeginSized(hint int) *Batch {
	s.mu.Lock()
	epoch := s.nextEpoch
	s.nextEpoch++
	s.mu.Unlock()
	return &Batch{s: s, epoch: epoch, hint: hint}
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

// put records one write in the staging map.
func (b *Batch) put(key string, e entry) {
	if b.s.cold != nil && len(key) > MaxColdKeyLen {
		// Fail at publish time, loudly, like other Batch misuse: an
		// oversized key would otherwise poison every future fold.
		panic(fmt.Sprintf("version: key %d bytes long exceeds MaxColdKeyLen=%d for a disk-backed store", len(key), MaxColdKeyLen))
	}
	if b.writes == nil {
		b.writes = make(map[string]entry, b.hint)
	}
	b.writes[key] = e
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

// Epoch returns the epoch this batch will publish at.
func (b *Batch) Epoch() uint64 { return b.epoch }

// Publish freezes the batch into at most one immutable layer, links it into
// the chain, and — when every lower epoch has completed — atomically
// advances the watermark so new snapshots observe it. The install is one
// atomic store, so the commit is all-or-nothing, and Publish never blocks or
// invalidates concurrent snapshot reads.
func (b *Batch) Publish() error {
	switch b.stage {
	case batchPublished:
		return fmt.Errorf("version: batch already published")
	case batchAborted:
		return fmt.Errorf("version: batch already aborted")
	}
	b.stage = batchPublished
	// Freeze the layer outside the lock: the batch owns its staging map, and
	// the layer owns it from here on (Put would panic anyway).
	var l *layer // nil while the batch is empty
	if len(b.writes) > 0 {
		l = &layer{epoch: b.epoch, oldest: b.epoch, entries: b.writes}
	}
	b.writes = nil

	s := b.s
	s.mu.Lock()
	defer s.mu.Unlock()
	s.completeLocked(b.epoch, l)
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

// completeLocked marks epoch completed, links its frozen layer (nil for an
// empty or aborted batch), advances the watermark over contiguously
// completed epochs, re-tiers the chain when the watermark moved, and
// installs the new state when anything changed. Caller holds mu.
func (s *Store) completeLocked(epoch uint64, l *layer) {
	cur := s.current.Load()
	s.completed[epoch] = true
	wm := cur.watermark
	for s.completed[wm+1] {
		delete(s.completed, wm+1)
		wm++
	}
	if wm == cur.watermark && l == nil {
		return
	}
	head := cur.head
	if l != nil {
		head = insertLayer(head, l)
	}
	merged := false
	if wm > cur.watermark {
		tiered, reclaimed := tier(head, s.tierFence, wm)
		merged = tiered != head
		head = tiered
		s.gcReclaimed += uint64(reclaimed)
	}
	next := &state{watermark: wm, head: head}
	s.current.Store(next)
	s.history = append(s.history, next)
	// A merge copied its members' entries into a new map; the superseded
	// states are what still reaches the members, so they go now — unless
	// pinned — rather than at the next fold, or RAM holds the run twice.
	if merged || len(s.history) > maxHistory {
		s.pruneHistoryLocked(next)
	}
}

// tier keeps the part of the chain that a snapshot at watermark wm reads
// and that lies above the tier fence — epochs in (fence, wm] — a
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
// copies one node per already-published higher epoch.
func insertLayer(head *layer, l *layer) *layer {
	below := descendTo(head, l.epoch)
	l.next = below
	return spliceAbove(head, below, l)
}

// Snapshot is a consistent read view pinned at one epoch. Get and Keys
// are lock-free: they walk the snapshot's own captured chain, which no
// publish or fold ever mutates.
type Snapshot struct {
	s     *Store
	st    *state
	epoch uint64
}

// Acquire pins a snapshot at the current watermark: one atomic load plus
// one atomic pin increment, never a lock. The captured state holds the
// chain head, so the view is consistent by construction.
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

// visible returns the first layer of the pinned chain a read walks: the
// not-yet-visible prefix (epochs published above a still open lower epoch)
// skipped. The chain below is strictly epoch-descending, so no per-layer
// epoch check is needed after.
func (st *state) visible() *layer { return descendTo(st.head, st.watermark) }

// Get returns the newest value for key with epoch <= the snapshot epoch.
// It walks the chain; on a miss it falls through to the cold tier (when one
// is attached), whose records are all at or below every live snapshot's
// epoch by the fold-floor rule. The hot path stays lock-free; only a
// genuine chain miss pays the disk read. It panics if the snapshot was
// released.
func (sn *Snapshot) Get(key string) ([]byte, bool) {
	st := sn.view("Get")
	for l := st.visible(); l != nil; l = l.next {
		if e, ok := l.entries[key]; ok {
			if e.deleted {
				return nil, false
			}
			return e.value, true
		}
	}
	if c := sn.s.cold; c != nil {
		return c.get(key, sn.epoch)
	}
	return nil, false
}

// Keys returns all live keys visible in the snapshot, sorted, across both
// tiers (a chain entry — live or tombstone — shadows any cold version of
// its key). It panics if the snapshot was released.
func (sn *Snapshot) Keys() []string {
	var keys []string
	sn.walk("Keys", func(k string, _ []byte) bool {
		keys = append(keys, k)
		return true
	})
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
// watermark it persists promises that every batch at or below it is on
// disk; a floor inside a merged layer's range would leave that layer's
// older batches in RAM under that promise. Tiering merges across pinned
// epochs, so the pin floor can sit inside such a range; the floor then drops
// to just below it. The chain's ranges are disjoint and descending, so only
// the last layer above the floor can reach it, and once below that layer the
// floor is inside no other. Caller holds mu.
func (s *Store) foldFloorLocked(cur *state) uint64 {
	floor := s.pinFloorLocked(cur)
	if head := cur.head; head != nil && head.epoch > floor {
		if l := lastAbove(head, floor); l.oldest <= floor {
			floor = l.oldest - 1
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

// entriesFrom counts the versions held by l and every layer below it.
func entriesFrom(l *layer) int {
	n := 0
	for ; l != nil; l = l.next {
		n += len(l.entries)
	}
	return n
}

// VersionCount reports the total number of stored versions in the current
// state's chain (for E9 and the fold tests). Lock-free.
func (s *Store) VersionCount() int {
	return entriesFrom(s.current.Load().head)
}

// Stats is a point-in-time summary of the store's shape.
type Stats struct {
	// Watermark is the highest contiguously published epoch.
	Watermark uint64
	// Layers is the chain's length — the tiered visible part plus any
	// not-yet-visible prefix, the worst-case read walk.
	Layers int
	// Entries is the total version count in the chain.
	Entries int
	// Pinned is the number of snapshots currently holding a state.
	Pinned int
	// PendingEpochs counts published/aborted epochs still waiting for a
	// lower epoch to complete before the watermark can cover them.
	PendingEpochs int
	// GCReclaimed is the cumulative number of versions dropped from
	// memory: superseded inside a tier merge, or folded to disk.
	GCReclaimed uint64
	// Cold summarises the disk tier (nil for purely in-memory stores).
	Cold *ColdStats
}

// StoreStats returns current store statistics.
func (s *Store) StoreStats() Stats {
	// Only the producer-side bookkeeping needs s.mu. The chain walk below
	// runs against an installed state, which is immutable — holding the
	// producer lock across it would stall every publisher behind a stats
	// poll, so it happens off-lock. The two halves may straddle a concurrent
	// publish; Stats is a point-in-time summary, not a consistent cut.
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
	for l := cur.head; l != nil; l = l.next {
		st.Layers++
		st.Entries += len(l.entries)
	}
	if s.cold != nil {
		st.Cold = s.cold.stats()
	}
	return st
}
