package kvstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// SyncPolicy controls WAL durability on commit.
type SyncPolicy int

const (
	// SyncAlways fsyncs the WAL on every commit (safest, slowest).
	SyncAlways SyncPolicy = iota
	// SyncGroup flushes buffers on commit but fsyncs only at checkpoints.
	// A crash may lose the most recent commits but never corrupts the tree.
	SyncGroup
	// SyncNever leaves flushing to checkpoints entirely (for bulk loads and
	// benchmarks; crash durability limited to the last checkpoint).
	SyncNever
)

// Options configures a Store.
type Options struct {
	// CacheSize is the buffer-pool capacity in pages (default DefaultCacheSize).
	CacheSize int
	// Sync selects the WAL durability policy (default SyncAlways).
	Sync SyncPolicy
	// CheckpointEvery triggers an automatic checkpoint after this many
	// committed operations (default 65536; 0 disables auto checkpoints).
	CheckpointEvery int
}

// Store is a persistent ordered key-value store: a single-file B+tree with a
// write-ahead log. All operations are safe for concurrent use; writes are
// serialised, reads proceed concurrently.
type Store struct {
	mu       sync.RWMutex
	pager    *Pager
	tree     btree
	wal      *wal
	opts     Options
	count    uint64 // live keys
	ckptLSN  uint64 // LSN covered by the last checkpoint
	sinceCkp int
	dir      string
	closed   bool
	// commits counts WAL commits in this life (Stats.Commits); read
	// without the lock, hence atomic.
	commits atomic.Uint64
}

// Open opens (creating if necessary) a store rooted at dir. The directory
// holds two files: data.db (pages) and wal.log. Pending WAL records are
// replayed before Open returns.
func Open(dir string, opts Options) (*Store, error) {
	if opts.CacheSize == 0 {
		opts.CacheSize = DefaultCacheSize
	}
	if opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = 65536
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("kvstore: mkdir: %w", err)
	}
	pager, err := newPager(filepath.Join(dir, "data.db"), opts.CacheSize)
	if err != nil {
		return nil, err
	}
	s := &Store{pager: pager, opts: opts, dir: dir}
	s.tree.pg = pager
	count, lsn, err := s.tree.loadMeta()
	if err != nil {
		pager.close()
		return nil, err
	}
	s.count = count
	s.ckptLSN = lsn

	// Recover: replay WAL records newer than the checkpoint.
	walPath := filepath.Join(dir, "wal.log")
	maxLSN, err := replayWAL(walPath, lsn, func(r walRecord) error {
		switch r.op {
		case walPut:
			added, err := s.tree.put(r.key, r.val)
			if added {
				s.count++
			}
			return err
		case walDelete:
			removed, err := s.tree.delete(r.key)
			if removed {
				s.count--
			}
			return err
		}
		return nil
	})
	if err != nil {
		pager.close()
		return nil, fmt.Errorf("kvstore: recovery: %w", err)
	}
	s.wal, err = openWAL(walPath)
	if err != nil {
		pager.close()
		return nil, err
	}
	s.wal.lsn = maxLSN
	if maxLSN > lsn {
		// Recovery applied records; checkpoint so they aren't replayed again.
		if err := s.checkpointLocked(); err != nil {
			s.wal.close()
			pager.close()
			return nil, err
		}
	}
	return s, nil
}

// checkKV refuses a pair the tree cannot hold. Put and PutBatch call it
// before the first WAL append: a record that is logged and then refused by
// the tree would be refused again by every recovery that replays it.
func checkKV(key, value []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("kvstore: empty key")
	}
	if len(key)+len(value) > maxPayload {
		return errValueTooLarge
	}
	return nil
}

// Put stores key→value, replacing any existing value.
func (s *Store) Put(key, value []byte) error {
	if err := checkKV(key, value); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("kvstore: store closed")
	}
	if err := s.wal.append(walPut, key, value); err != nil {
		return err
	}
	if err := s.commitWAL(); err != nil {
		return err
	}
	added, err := s.tree.put(key, value)
	if err != nil {
		return err
	}
	if added {
		s.count++
	}
	return s.maybeCheckpoint(1)
}

// PutBatch applies many puts under one WAL commit (group commit). A batch
// holding a pair the tree cannot take is refused whole.
func (s *Store) PutBatch(pairs []KV) error {
	for i, kv := range pairs {
		if err := checkKV(kv.Key, kv.Value); err != nil {
			return fmt.Errorf("batch pair %d: %w", i, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("kvstore: store closed")
	}
	for _, kv := range pairs {
		if err := s.wal.append(walPut, kv.Key, kv.Value); err != nil {
			return err
		}
	}
	if err := s.commitWAL(); err != nil {
		return err
	}
	for _, kv := range pairs {
		added, err := s.tree.put(kv.Key, kv.Value)
		if err != nil {
			return err
		}
		if added {
			s.count++
		}
	}
	return s.maybeCheckpoint(len(pairs))
}

// KV is one key-value pair for batch operations.
type KV struct {
	Key   []byte
	Value []byte
}

// DefaultWriteChunk is the batch size PutBatchChunked and DeleteBatchChunked
// use when the caller passes chunk <= 0: large enough to amortize the WAL
// commit, small enough that readers waiting on the write lock see a bounded
// pause instead of stalling for the whole bulk operation.
const DefaultWriteChunk = 128

// PutBatchChunked applies pairs in chunks of at most chunk puts, releasing
// the store write lock between chunks so concurrent readers interleave with
// a long bulk load (e.g. a version-store cold fold) instead of stalling
// behind it. Each chunk is one WAL group commit; a crash mid-way leaves a
// prefix of the chunks durable, so callers needing all-or-nothing semantics
// must layer their own watermark on top (the version store does).
func (s *Store) PutBatchChunked(pairs []KV, chunk int) error {
	if chunk <= 0 {
		chunk = DefaultWriteChunk
	}
	for len(pairs) > 0 {
		n := chunk
		if n > len(pairs) {
			n = len(pairs)
		}
		if err := s.PutBatch(pairs[:n]); err != nil {
			return err
		}
		pairs = pairs[n:]
	}
	return nil
}

// DeleteBatch removes many keys under one WAL commit (group commit).
// Absent keys are not an error.
func (s *Store) DeleteBatch(keys [][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("kvstore: store closed")
	}
	for _, k := range keys {
		if err := s.wal.append(walDelete, k, nil); err != nil {
			return err
		}
	}
	if err := s.commitWAL(); err != nil {
		return err
	}
	for _, k := range keys {
		removed, err := s.tree.delete(k)
		if err != nil {
			return err
		}
		if removed {
			s.count--
		}
	}
	return s.maybeCheckpoint(len(keys))
}

// DeleteBatchChunked is DeleteBatch with the same bounded-pause chunking as
// PutBatchChunked.
func (s *Store) DeleteBatchChunked(keys [][]byte, chunk int) error {
	if chunk <= 0 {
		chunk = DefaultWriteChunk
	}
	for len(keys) > 0 {
		n := chunk
		if n > len(keys) {
			n = len(keys)
		}
		if err := s.DeleteBatch(keys[:n]); err != nil {
			return err
		}
		keys = keys[n:]
	}
	return nil
}

// Get returns a copy of the value for key, or ok=false.
func (s *Store) Get(key []byte) (value []byte, ok bool, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, fmt.Errorf("kvstore: store closed")
	}
	return s.tree.get(key)
}

// Delete removes key; it is not an error if the key is absent.
func (s *Store) Delete(key []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("kvstore: store closed")
	}
	if err := s.wal.append(walDelete, key, nil); err != nil {
		return err
	}
	if err := s.commitWAL(); err != nil {
		return err
	}
	removed, err := s.tree.delete(key)
	if err != nil {
		return err
	}
	if removed {
		s.count--
	}
	return s.maybeCheckpoint(1)
}

func (s *Store) commitWAL() error {
	if err := s.wal.append(walCommit, nil, nil); err != nil {
		return err
	}
	s.commits.Add(1)
	switch s.opts.Sync {
	case SyncAlways:
		return s.wal.sync()
	case SyncGroup:
		return s.wal.flush()
	default:
		return nil
	}
}

func (s *Store) maybeCheckpoint(nops int) error {
	s.sinceCkp += nops
	if s.opts.CheckpointEvery > 0 && s.sinceCkp >= s.opts.CheckpointEvery {
		return s.checkpointLocked()
	}
	return nil
}

// Checkpoint flushes all dirty pages, persists metadata, and truncates the
// WAL. After a checkpoint, recovery starts from the flushed tree image.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("kvstore: store closed")
	}
	return s.checkpointLocked()
}

func (s *Store) checkpointLocked() error {
	s.ckptLSN = s.wal.lsn
	if err := s.tree.saveMeta(s.count, s.ckptLSN); err != nil {
		return err
	}
	if err := s.pager.flush(); err != nil {
		return err
	}
	if err := s.wal.truncate(); err != nil {
		return err
	}
	s.sinceCkp = 0
	return nil
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int(s.count)
}

// Stats returns the buffer-pool counters plus this life's write counts.
func (s *Store) Stats() Stats {
	st := s.pager.stats()
	st.Commits = s.commits.Load()
	st.WALBytes = s.wal.bytes.Load()
	st.LeafSplits = s.tree.splits.Load()
	st.LeafRebalances = s.tree.rebalances.Load()
	return st
}

// DiskBytes reports the size of the data file plus WAL on disk.
func (s *Store) DiskBytes() int64 {
	var total int64
	for _, name := range []string{"data.db", "wal.log"} {
		if fi, err := os.Stat(filepath.Join(s.dir, name)); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// Close checkpoints and releases all resources.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.checkpointLocked(); err != nil {
		s.wal.close()
		s.pager.close()
		return err
	}
	if err := s.wal.close(); err != nil {
		s.pager.close()
		return err
	}
	return s.pager.close()
}

// Scan calls fn for every key in [start, end) in order. A nil start begins
// at the first key; a nil end scans to the last. fn returning false stops
// the scan. The key/value slices passed to fn are copies.
func (s *Store) Scan(start, end []byte, fn func(key, value []byte) bool) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return fmt.Errorf("kvstore: store closed")
	}
	var id pageID
	var slot int
	var err error
	if start == nil {
		id, err = s.tree.leftmostLeaf()
		slot = 0
	} else {
		id, slot, err = s.tree.seekLeaf(start)
	}
	if err != nil {
		return err
	}
	//memexvet:ignore lockiter the read lock IS the scan's consistency contract: the B+tree has no versioned state to snapshot, and writers (fold, checkpoints) are background-paced
	for id != nilPage {
		p, err := s.tree.pg.get(id)
		if err != nil {
			return err
		}
		nk := p.nkeys()
		for ; slot < nk; slot++ {
			k := p.leafKey(slot)
			if end != nil && bytes.Compare(k, end) >= 0 {
				s.tree.pg.unpin(p)
				return nil
			}
			kc := append([]byte(nil), k...)
			vc := append([]byte(nil), p.leafVal(slot)...)
			if !fn(kc, vc) {
				s.tree.pg.unpin(p)
				return nil
			}
		}
		next := p.right()
		s.tree.pg.unpin(p)
		id = next
		slot = 0
	}
	return nil
}

// ScanPrefix scans all keys beginning with prefix.
func (s *Store) ScanPrefix(prefix []byte, fn func(key, value []byte) bool) error {
	end := prefixEnd(prefix)
	return s.Scan(prefix, end, fn)
}

// MaxKV is the largest key+value size one tree entry can hold. Callers
// storing bigger blobs must split them across entries (the version store's
// cold tier chunks records into parts for exactly this reason).
const MaxKV = maxPayload

// ReadView is a read-only handle over a store: the subset of the API that
// can never mutate the tree, handed to reader subsystems (the version
// store's cold-tier fallthrough) so a misrouted write is a compile error
// rather than a latent corruption. Reads through a view take the same
// shared lock as Store reads — they run concurrently with each other and
// interleave with chunked bulk writes.
type ReadView struct {
	s *Store
}

// ReadView returns the store's read-only handle.
func (s *Store) ReadView() *ReadView { return &ReadView{s: s} }

// Get returns a copy of the value for key, or ok=false.
func (v *ReadView) Get(key []byte) ([]byte, bool, error) { return v.s.Get(key) }

// Scan calls fn for every key in [start, end) in order (see Store.Scan).
func (v *ReadView) Scan(start, end []byte, fn func(key, value []byte) bool) error {
	return v.s.Scan(start, end, fn)
}

// ScanPrefix scans all keys beginning with prefix.
func (v *ReadView) ScanPrefix(prefix []byte, fn func(key, value []byte) bool) error {
	return v.s.ScanPrefix(prefix, fn)
}

// Len returns the number of live keys.
func (v *ReadView) Len() int { return v.s.Len() }

// prefixEnd returns the smallest key greater than every key with the given
// prefix, or nil if no such key exists (prefix is all 0xff).
func prefixEnd(prefix []byte) []byte {
	end := append([]byte(nil), prefix...)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] < 0xff {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}
