package kvstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// SyncPolicy controls WAL durability on commit.
type SyncPolicy int

const (
	// SyncAlways fsyncs the WAL on every commit (safest, slowest).
	SyncAlways SyncPolicy = iota
	// SyncGroup writes the log to the OS on commit but fsyncs it only at
	// checkpoints: a commit survives a process crash, not a power cut.
	SyncGroup
)

// String names the policy as /metrics labels it. A commit is fsynced
// before it is acknowledged only under SyncAlways; any other value
// behaves as SyncGroup.
func (p SyncPolicy) String() string {
	if p == SyncAlways {
		return "always"
	}
	return "group"
}

// Options configures a Store.
type Options struct {
	// CacheSize is the buffer-pool capacity in pages (default
	// DefaultCacheSize). It also paces checkpoints: one follows the commit
	// that overflows the pool with dirty pages or takes the log past
	// CacheSize×PageSize bytes.
	CacheSize int
	// Sync selects the WAL durability policy (default SyncAlways).
	Sync SyncPolicy
}

// Store is a persistent ordered key-value store: a single-file B+tree with a
// write-ahead log. All operations are safe for concurrent use; writes are
// serialised, reads proceed concurrently.
type Store struct {
	mu      sync.RWMutex
	pager   *Pager
	tree    btree
	wal     *wal
	opts    Options
	count   uint64 // live keys
	ckptLSN uint64 // LSN covered by the last checkpoint
	dir     string
	closed  bool
	// commits and checkpoints count this life's (Stats.Commits,
	// Stats.Checkpoints); read without the lock, hence atomic.
	commits, checkpoints atomic.Uint64
	// lastFsync is when this life last fsynced (Stats.LastFsync), in Unix
	// nanoseconds; 0 before the first.
	lastFsync atomic.Int64
}

// Open opens (creating if necessary) a store rooted at dir. The directory
// holds two files: data.db (pages) and wal.log. Pending WAL records are
// replayed before Open returns.
func Open(dir string, opts Options) (*Store, error) {
	if opts.CacheSize == 0 {
		opts.CacheSize = DefaultCacheSize
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

	// Recover: replay the commits newer than the checkpoint, then cut the
	// log after the last of them. A replay bigger than the pool overflows
	// it until the checkpoint below.
	walPath := filepath.Join(dir, "wal.log")
	maxLSN, end, err := replayWAL(walPath, lsn, s.apply)
	if err != nil {
		pager.close()
		return nil, fmt.Errorf("kvstore: recovery: %w", err)
	}
	s.wal, err = openWAL(walPath, end)
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
func checkKV(kv KV) error {
	if len(kv.Key) == 0 {
		return fmt.Errorf("kvstore: empty key")
	}
	if len(kv.Key)+len(kv.Value) > maxPayload {
		return errValueTooLarge
	}
	return nil
}

// Put stores key→value, replacing any existing value.
func (s *Store) Put(key, value []byte) error {
	return s.PutBatch([]KV{{Key: key, Value: value}})
}

// KV is one write of a batch: Key→Value, or with Delete set the removal of
// Key (Value unused; an absent key is not an error).
type KV struct {
	Key    []byte
	Value  []byte
	Delete bool
}

// PutBatch applies a batch of puts and deletes, in order, as one WAL commit:
// after a crash recovery replays the whole batch or none of it. A batch
// holding a pair the tree cannot take is refused whole, before anything is
// logged. The write lock is held for the whole batch.
func (s *Store) PutBatch(pairs []KV) error {
	for i, kv := range pairs {
		if err := checkKV(kv); err != nil {
			if len(pairs) > 1 {
				err = fmt.Errorf("batch pair %d: %w", i, err)
			}
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("kvstore: store closed")
	}
	for _, kv := range pairs {
		op := byte(walPut)
		if kv.Delete {
			op = walDelete
		}
		if err := s.wal.append(op, kv.Key, kv.Value); err != nil {
			return err
		}
	}
	if err := s.commitWAL(); err != nil {
		return err
	}
	for _, kv := range pairs {
		if err := s.apply(kv); err != nil {
			return err
		}
	}
	return s.maybeCheckpoint()
}

// apply writes one logged pair into the tree and keeps the key count.
func (s *Store) apply(kv KV) error {
	if kv.Delete {
		removed, err := s.tree.delete(kv.Key)
		if removed {
			s.count--
		}
		return err
	}
	added, err := s.tree.put(kv.Key, kv.Value)
	if added {
		s.count++
	}
	return err
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

func (s *Store) commitWAL() error {
	if err := s.wal.append(walCommit, nil, nil); err != nil {
		return err
	}
	s.commits.Add(1)
	if s.opts.Sync == SyncAlways {
		if err := s.wal.sync(); err != nil {
			return err
		}
		s.lastFsync.Store(time.Now().UnixNano())
		return nil
	}
	return s.wal.flush()
}

// maybeCheckpoint runs after a commit is applied, the only time the store
// checkpoints by itself (reads never do). Dirty pages leave the pool only
// in a checkpoint, so one is due once the pool has overflowed, or once the
// log holds a pool's worth of bytes, which bounds replay at Open. The write
// lock shuts out every other pager user, so full is read without pg.mu.
func (s *Store) maybeCheckpoint() error {
	if s.pager.full || s.wal.size >= int64(s.pager.capacity)*PageSize {
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
	s.lastFsync.Store(time.Now().UnixNano())
	if err := s.wal.truncate(); err != nil {
		return err
	}
	s.checkpoints.Add(1)
	return nil
}

// Stats returns the buffer-pool counters plus this life's write counts,
// the sync policy and when the store last fsynced.
func (s *Store) Stats() Stats {
	st := s.pager.stats()
	st.Commits = s.commits.Load()
	st.WALBytes = s.wal.bytes.Load()
	st.Checkpoints = s.checkpoints.Load()
	st.LeafSplits = s.tree.splits.Load()
	st.LeafRebalances = s.tree.rebalances.Load()
	st.Sync = s.opts.Sync
	if ns := s.lastFsync.Load(); ns != 0 {
		st.LastFsync = time.Unix(0, ns)
	}
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
			kc := p.leafKey(slot)
			if end != nil && bytes.Compare(kc, end) >= 0 {
				s.tree.pg.unpin(p)
				return nil
			}
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
