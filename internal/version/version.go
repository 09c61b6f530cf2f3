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
// links it on top of the chain, and installs the new state with one atomic
// store. Publish is therefore a single atomic commit — O(batch) work plus
// the amortised tier merge, independent of how much data the store holds —
// and a snapshot can never observe half of a batch.
//
// Because nothing reachable from an installed state is ever mutated,
// readers need no locks at all:
//
//   - Acquire is an atomic load of the current state, one atomic pin
//     increment and a second load confirming the state is still current.
//     The snapshot owns that state — and its chain — forever after.
//   - Snapshot.Get walks the captured chain, every layer of which is at
//     or below the snapshot epoch. It never touches a store mutex, so reads
//     scale linearly with reader count; tiering keeps the walk short.
//
// Published epochs are immutable: no publish and no fold ever rewrites a
// record under an installed state. Layers above the store
// (the engine's shared decoded-record cache in internal/core) lean on
// that — an entry cached under its (epoch, key) can only ever be dropped
// (memory pressure, or its epoch falling below PinFloor), never
// invalidated in place.
//   - The producer-side mutex serialises Publish and the fold's state
//     installs against each other only; consumers never observe it.
//
// # The watermark is the last published epoch
//
// A batch takes its epoch when it publishes, not when it is begun: Publish
// sets it to watermark+1 under the producer lock, links the layer on top of
// the head and installs the state whose watermark is that epoch, in one
// critical section. Staging a batch takes no lock and no epoch, so a batch
// that is dropped unpublished costs nothing, and an empty one installs
// nothing and takes no epoch. Every layer in an installed chain is therefore
// at or below its state's watermark, and epochs are gapless by construction:
// no publish can land below an epoch a snapshot has already pinned.
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
// chain they merge, newest first, into one immutable layer of the next
// level (see tier). A snapshot therefore walks at most
// (k-1)·(⌊log_k publishes⌋+1) layers, each entry is copied at most
// ⌊log_k publishes⌋ times, and none of it touches the disk: the merge builds
// new layers beside the old ones and installs them behind the one atomic
// pointer like any other state, so Get stays lock-free and a pinned
// snapshot keeps the chain it captured. A merged layer carries its newest
// member's epoch, at most the watermark of the state being installed; that
// state and every later one pin at or above it and would have read all the
// members anyway.
//
// What a RAM merge must respect, and what it may leave to the fold:
//
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
// the disk keeps one version of a key, the newest folded, written over the
// one before. A snapshot pinned below the floor would read those keys from
// disk and find versions newer than its epoch. Reads fall through a missed
// chain walk to a read-only kvstore handle; because the fold floor never
// exceeds the minimum pinned epoch, every cold record is at or below every
// live snapshot's epoch, and the in-memory chain (which a pinned snapshot
// captured immutably) shadows the cold tier for every key it contains — so
// the fallthrough needs no coordination with folds. A fold round is one
// kvstore commit, so on reopen the disk is as some round left it; the store
// reads the durable fold watermark back and resumes publishing at
// watermark+1 (see cold.go for the crash contract).
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
	"sync"
	"sync/atomic"
)

// layer is a published batch frozen as an immutable map from key to value;
// absence of the key in every layer and on disk means "never written", as
// the store has no deletes. next points at the
// next-older layer (strictly smaller epoch). No field is ever written after
// the layer is linked into an installed state.
type layer struct {
	epoch uint64
	// oldest is the lowest epoch of any batch merged into the layer (epoch
	// itself for a published batch), so the layer stands for the writes of
	// [oldest, epoch]. A fold may write and splice whole layers only, so its
	// floor must not fall inside such a range (foldFloorLocked).
	oldest  uint64
	entries map[string][]byte
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
// nil: a plain walk down the tiered spine above a fold's floor.
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
	// pinned-state history, and state installs. Snapshot reads never
	// acquire it, and a fold holds it only to capture the chain and for the
	// final splice, not while it writes.
	mu sync.Mutex
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

// tierFanout is k, the base of the layer counter tier keeps: a chain is at
// most (k-1)·(⌊log_k(publishes)⌋+1) layers deep and each entry is copied
// at most ⌊log_k(publishes)⌋ times. 16 keeps the post-burst read
// walk near 20 layers at three copies per entry; 8 would halve the walk for
// a fourth copy.
const tierFanout = 16

// NewStore returns an empty versioned store at watermark 0.
func NewStore() *Store {
	s := &Store{}
	st := &state{}
	s.current.Store(st)
	s.history = append(s.history, st)
	return s
}

// Batch stages writes for the next epoch, which it takes when it publishes.
// Staging takes no lock and no epoch, so it never blocks consumers or the
// producer, and a batch dropped unpublished costs nothing. A Batch is not
// safe for concurrent use; distinct batches are.
type Batch struct {
	s *Store
	// writes holds the staged values (nil until the first Put).
	writes    map[string][]byte
	hint      int
	published bool
}

// BeginSized opens a new staging batch, with a capacity hint for the number
// of staged writes that spares the producer incremental map growth on hot
// batches.
func (s *Store) BeginSized(hint int) *Batch {
	return &Batch{s: s, hint: hint}
}

// Put stages key→value in the batch. Staging into a published batch is a
// programming error whose writes would never land, so it panics.
func (b *Batch) Put(key string, value []byte) {
	if b.published {
		panic("version: Put on already-published batch")
	}
	if b.s.cold != nil && len(key) > MaxColdKeyLen {
		// Fail at publish time, loudly, like other Batch misuse: an
		// oversized key would otherwise poison every future fold.
		panic(fmt.Sprintf("version: key %d bytes long exceeds MaxColdKeyLen=%d for a disk-backed store", len(key), MaxColdKeyLen))
	}
	if b.writes == nil {
		b.writes = make(map[string][]byte, b.hint)
	}
	b.writes[key] = value
}

// Publish takes the next epoch — watermark+1 — for the batch, freezes it
// into one immutable layer on top of the chain, and atomically installs the
// state whose watermark is that epoch, so new snapshots observe it. The
// install is one atomic store, so the commit is all-or-nothing, and Publish
// never blocks or invalidates concurrent snapshot reads. An empty batch
// installs nothing and takes no epoch. A second Publish is an error.
func (b *Batch) Publish() error {
	if b.published {
		return fmt.Errorf("version: batch already published")
	}
	b.published = true
	if len(b.writes) == 0 {
		return nil
	}
	s := b.s
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.current.Load()
	epoch := cur.watermark + 1
	// The layer owns the staging map from here on (Put would panic anyway).
	l := &layer{epoch: epoch, oldest: epoch, entries: b.writes, next: cur.head}
	b.writes = nil
	head, reclaimed := tier(l, s.tierFence)
	s.gcReclaimed += uint64(reclaimed)
	next := &state{watermark: epoch, head: head}
	s.current.Store(next)
	s.history = append(s.history, next)
	// A merge copied its members' entries into a new map; the superseded
	// states are what still reaches the members, so they go now — unless
	// pinned — rather than at the next fold, or RAM holds the run twice.
	if head != l || len(s.history) > maxHistory {
		s.pruneHistoryLocked(next)
	}
	return nil
}

// tier keeps the part of the chain above the tier fence a base-tierFanout
// counter, and returns the new head with the number of superseded versions
// the merge dropped. Levels never decrease down that part (new layers
// arrive on top at level 0, and a merge always swallows the whole run above
// its result). Adding a layer on top is an increment: once tierFanout
// layers of level ℓ or lower lead the part, they carry into one layer of
// level ℓ+1, and the carry repeats one level up with that layer counted
// in. So at rest each level holds fewer than tierFanout layers, and a
// level-ℓ layer holds at least tierFanout^ℓ batches, which together give
// the depth and copy bounds stated at tierFanout.
//
// The cascade is planned on the levels alone and executed as one merge,
// newest-first (first write wins), so an entry is copied once however many
// levels the carry climbs. The result carries its newest member's epoch,
// the watermark of the state being installed: that state, and every later
// one, pins at or above that epoch and would have read all of the members
// anyway, while snapshots pinned earlier keep the chains they captured. It
// is unsound at or below the fence for a different reason: a fold
// recognises the sub-chain it wrote by pointer, and leans on the fence as
// an epoch no layer spans.
func tier(head *layer, fence uint64) (*layer, int) {
	// Plan: the layers from head down to end (exclusive) merge into one
	// layer of level lvl; nothing merges while end is still head.
	lvl, end := uint8(0), head
	for {
		e, run := end, 0
		if end != head {
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
	if end == head {
		return head, 0
	}
	merged, members := mergeRun(head, end, lvl)
	merged.next = end
	return merged, members - len(merged.entries)
}

// mergeRun merges the layers from top down to end (exclusive) into one
// unlinked layer of the given level under top's epoch — newest first, the
// first write of a key wins — and also returns how many
// entries the members held between them.
func mergeRun(top, end *layer, level uint8) (merged *layer, members int) {
	oldest := top.oldest
	for l := top; l != end; l = l.next {
		members += len(l.entries)
		oldest = l.oldest
	}
	merged = &layer{epoch: top.epoch, oldest: oldest, entries: make(map[string][]byte, members), level: level}
	for l := top; l != end; l = l.next {
		for k, v := range l.entries {
			if _, shadowed := merged.entries[k]; shadowed {
				continue
			}
			merged.entries[k] = v
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

// Snapshot is a consistent read view pinned at one epoch. Get and Read
// are lock-free: they walk the snapshot's own captured chain, which no
// publish or fold ever mutates.
type Snapshot struct {
	s     *Store
	st    *state
	epoch uint64
}

// Acquire pins a snapshot at the current watermark: an atomic load, an
// atomic pin increment and a second load, never a lock. The captured state
// holds the chain head, so the view is consistent by construction. The
// second load confirms the pin landed while the state was still current;
// otherwise a fold may have computed its floor past the state without
// seeing the pin, and the pin moves to the newer state.
func (s *Store) Acquire() *Snapshot {
	for {
		st := s.current.Load()
		st.pins.Add(1)
		if s.current.Load() == st {
			return &Snapshot{s: s, st: st, epoch: st.watermark}
		}
		st.pins.Add(-1)
	}
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
// It walks the chain; on a miss it falls through to the cold tier (when one
// is attached), whose records are all at or below every live snapshot's
// epoch by the fold-floor rule, and none of which a round rewrites while a
// snapshot that could miss it is pinned. The hot path stays lock-free; only a
// genuine chain miss pays the disk read. A cold read that fails counts as a
// miss (and in Stats.Cold.ReadErrors): a reader degrades to "unknown". It
// panics if the snapshot was released.
func (sn *Snapshot) Get(key string) ([]byte, bool) {
	v, ok, _ := sn.read("Get", key)
	return v, ok
}

// Read is Get for a caller that must tell a failed cold read from a key with
// no record — a producer about to rewrite the record from what it read. The
// failure is counted as Get counts it, and returned.
func (sn *Snapshot) Read(key string) ([]byte, bool, error) {
	return sn.read("Read", key)
}

func (sn *Snapshot) read(op, key string) ([]byte, bool, error) {
	st := sn.view(op)
	for l := st.head; l != nil; l = l.next {
		if v, ok := l.entries[key]; ok {
			return v, true, nil
		}
	}
	if c := sn.s.cold; c != nil {
		return c.get(key)
	}
	return nil, false, nil
}

// Release unpins the snapshot, letting the fold move past its epoch and the
// runtime reclaim its layers. Release is idempotent; a read after Release
// panics.
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

// Stats is a point-in-time summary of the store's shape.
type Stats struct {
	// Watermark is the last published epoch.
	Watermark uint64
	// Layers is the chain's length, the worst-case read walk.
	Layers int
	// Entries is the total version count in the chain.
	Entries int
	// Pinned is the number of snapshots currently holding a state.
	Pinned int
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
	st := Stats{GCReclaimed: s.gcReclaimed}
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
